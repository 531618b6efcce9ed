"""``repro.serve``: certified bounds as a service.

The paper's pipeline — C source in, verified stack bound plus checkable
certificate out — is a pure function of ``(source text, compiler
options)``, which makes it an ideal cacheable service.  This package is
that service, three layers deep:

* :mod:`repro.serve.store` — a content-addressed result store at every
  pipeline stage boundary, keyed by ``sha256(source) ×
  CompilerOptions.key()``, with integrity-checked entries and pin-aware
  LRU eviction;
* :mod:`repro.serve.pipeline` — ``driver.py``'s composable stages
  (frontend → backend → analyze → check) run through the store, so
  repeat requests hit at every stage and near-repeats (same source,
  different backend flags) are partial hits;
* :mod:`repro.serve.pool` / :mod:`repro.serve.server` — a persistent
  worker pool (campaign warmup + heartbeat telemetry) behind a
  zero-dependency HTTP daemon with bounded-queue backpressure,
  ``/metrics`` and ``/healthz``.

CLI: ``python -m repro serve``; API + schema: ``docs/SERVING.md``.
"""

from repro.serve.pipeline import (RESPONSE_SCHEMA, STAGES, ServeRequest,
                                  error_response, options_from_json,
                                  run_pipeline, validate_response,
                                  validate_response_text)
from repro.serve.pool import PoolSaturated, ServePool
from repro.serve.server import (BATCH_SCHEMA, DEFAULT_STORE_DIR,
                                MAX_BATCH_ITEMS, BoundsServer, ServeConfig,
                                run_server)
from repro.serve.store import (DEFAULT_MAX_BYTES, STORE_SCHEMA, ResultStore,
                               ServeError, options_digest, source_digest,
                               stage_key)

__all__ = [
    "BATCH_SCHEMA", "BoundsServer", "DEFAULT_MAX_BYTES",
    "DEFAULT_STORE_DIR", "MAX_BATCH_ITEMS", "PoolSaturated",
    "RESPONSE_SCHEMA", "ResultStore", "STAGES", "STORE_SCHEMA",
    "ServeConfig", "ServeError", "ServePool", "ServeRequest",
    "error_response", "options_digest", "options_from_json",
    "run_pipeline", "run_server", "source_digest", "stage_key",
    "validate_response", "validate_response_text",
]
