"""Block-level Kildall solvers for RTL dataflow problems.

Facts live only at basic-block leaders.  A client supplies its lattice
as in-place callbacks: ``transfer(instr, fact)`` steps a fact across one
instruction, ``merge(old, new)`` joins ``new`` into ``old`` and returns
whether ``old`` changed, and ``copy(fact)`` gives an owned fact.  Each
visit of a block copies its leader's fact once and steps it through the
block; afterwards a client reads the fact at each instruction from one
more in-place walk of each block, so no per-node fact map is built.
Constprop and CSE solve forward; liveness solves backward for dead-code
elimination and the register allocator.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, TypeVar

from repro.rtl import ast as rtl

Fact = TypeVar("Fact")
Transfer = Callable[[rtl.Instr, Fact], None]


class Blocks:
    """The basic blocks of one function's graph.

    ``leaders`` holds each block's first node: the blocks reachable from
    the entry in reverse postorder, then the unreachable ones.
    ``body[leader]`` is the block's nodes in execution order; only the
    last may have other than one successor, and its successors are
    leaders.
    """

    def __init__(self, function: rtl.RTLFunction) -> None:
        graph = self.graph = function.graph
        # A node starts a block unless it has exactly one predecessor and
        # that predecessor has exactly one successor.
        single_preds = dict.fromkeys(graph, 0)
        leaders = {function.entry}
        for instr in graph.values():
            succs = instr.successors()
            if len(succs) == 1:
                single_preds[succs[0]] += 1
            else:
                leaders.update(succs)
        leaders.update(node for node, count in single_preds.items()
                       if count != 1)
        self.body = {node: self._chain(node, leaders)
                     for node in graph if node in leaders}
        if sum(map(len, self.body.values())) != len(graph):
            # What is left forms unreachable cycles of one-successor,
            # one-predecessor nodes: any node of one can lead it.
            covered = {node for nodes in self.body.values()
                       for node in nodes}
            for node in graph:
                if node not in covered:
                    leaders.add(node)
                    self.body[node] = self._chain(node, leaders)
                    covered.update(self.body[node])
        order = self._reverse_postorder(function.entry)
        reached = set(order)
        order += [leader for leader in self.body if leader not in reached]
        self.leaders = order
        self.rank = {leader: index for index, leader in enumerate(order)}

    def _chain(self, leader: int, leaders: set[int]) -> list[int]:
        nodes = [leader]
        succs = self.graph[leader].successors()
        while len(succs) == 1 and succs[0] not in leaders:
            nodes.append(succs[0])
            succs = self.graph[succs[0]].successors()
        return nodes

    def successors(self, leader: int) -> tuple[int, ...]:
        return self.graph[self.body[leader][-1]].successors()

    def predecessors(self) -> dict[int, list[int]]:
        """Leader -> the leaders of the blocks that jump to it."""
        preds: dict[int, list[int]] = {leader: [] for leader in self.leaders}
        for leader in self.leaders:
            for succ in self.successors(leader):
                preds[succ].append(leader)
        return preds

    def _reverse_postorder(self, entry: int) -> list[int]:
        """Draining a worklist in this order (reversed, backward)
        stabilizes loop bodies in a couple of sweeps."""
        seen = {entry}
        stack = [(entry, iter(self.successors(entry)))]
        post: list[int] = []
        while stack:
            leader, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.successors(succ))))
                    break
            else:
                post.append(leader)
                stack.pop()
        post.reverse()
        return post


def solve_forward(function: rtl.RTLFunction, entry_fact: Fact,
                  transfer: Transfer, merge: Callable[[Fact, Fact], bool],
                  copy: Callable[[Fact], Fact]
                  ) -> tuple[Blocks, dict[int, Fact]]:
    """The blocks, and the fact *before* each leader reachable from the
    entry (unreachable ones get none)."""
    blocks = Blocks(function)
    graph, body, rank = blocks.graph, blocks.body, blocks.rank
    facts = {function.entry: copy(entry_fact)}
    heap = [(0, function.entry)]
    pending = {function.entry}
    while heap:
        _rank, leader = heapq.heappop(heap)
        pending.discard(leader)
        fact = copy(facts[leader])
        for node in body[leader]:
            instr = graph[node]
            transfer(instr, fact)
        for succ in instr.successors():  # the block's last instruction
            if succ not in facts:
                facts[succ] = copy(fact)
            elif not merge(facts[succ], fact):
                continue
            if succ not in pending:
                pending.add(succ)
                heapq.heappush(heap, (rank[succ], succ))
    return blocks, facts


def solve_backward(function: rtl.RTLFunction, exit_fact: Fact,
                   transfer: Transfer, merge: Callable[[Fact, Fact], bool],
                   copy: Callable[[Fact], Fact]
                   ) -> tuple[Blocks, dict[int, Fact]]:
    """The blocks, and the fact *after* each block's last node: the join
    of its successors' facts, ``exit_fact`` for a block with none."""
    blocks = Blocks(function)
    graph, body, rank = blocks.graph, blocks.body, blocks.rank
    preds = blocks.predecessors()
    facts = {leader: copy(exit_fact) for leader in blocks.leaders}
    # Every block starts pending, in postorder (sorted, so a heap).
    heap = [(-rank[leader], leader) for leader in reversed(blocks.leaders)]
    pending = set(blocks.leaders)
    while heap:
        _rank, leader = heapq.heappop(heap)
        pending.discard(leader)
        fact = copy(facts[leader])
        for node in reversed(body[leader]):
            transfer(graph[node], fact)
        for pred in preds[leader]:
            if merge(facts[pred], fact) and pred not in pending:
                pending.add(pred)
                heapq.heappush(heap, (-rank[pred], pred))
    return blocks, facts


def walk_forward(blocks: Blocks, facts: dict[int, Fact], transfer: Transfer
                 ) -> Iterator[tuple[int, rtl.Instr, Fact]]:
    """Yield ``(node, instr, fact before node)`` for each reached node.

    The walk steps :func:`solve_forward`'s facts in place once the
    consumer resumes, so a consumer that keeps a fact copies it.  The
    transfer uses the ``instr`` yielded, so the consumer may rewrite
    ``graph[node]``.
    """
    for leader in blocks.leaders:
        fact = facts.get(leader)
        if fact is not None:
            for node in blocks.body[leader]:
                instr = blocks.graph[node]
                yield node, instr, fact
                transfer(instr, fact)


def walk_backward(blocks: Blocks, facts: dict[int, Fact], transfer: Transfer
                  ) -> Iterator[tuple[int, rtl.Instr, Fact]]:
    """Yield ``(node, instr, fact after node)`` for every node, each block
    from its last node back; in place, as :func:`walk_forward`."""
    for leader in blocks.leaders:
        fact = facts[leader]
        for node in reversed(blocks.body[leader]):
            instr = blocks.graph[node]
            yield node, instr, fact
            transfer(instr, fact)
