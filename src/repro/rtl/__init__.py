"""RTL: a control-flow graph of three-address code over virtual registers.

This mirrors CompCert's RTL, the workhorse representation for dataflow
optimization and register allocation:

* :mod:`repro.rtl.ast` — instructions, functions, programs;
* :mod:`repro.rtl.lower` — Cminor → RTL construction;
* :mod:`repro.rtl.semantics` — an interpreter emitting call/ret events
  (used by the differential refinement tests);
* :mod:`repro.rtl.dataflow` — block-level forward and backward solvers;
* :mod:`repro.rtl.constprop` — conditional constant propagation;
* :mod:`repro.rtl.liveness` — backward liveness analysis;
* :mod:`repro.rtl.deadcode` — dead-code elimination on pure instructions.
"""

from repro.rtl.ast import RTLFunction, RTLProgram
from repro.rtl.lower import rtl_of_cminor

__all__ = ["RTLProgram", "RTLFunction", "rtl_of_cminor"]
