"""Seeded query sets for the three workloads.

A run draws one set of at least 100 queries from its seed and works through
that set in passes, so every query is timed several times.  A query is a pair
``(kind, arg)`` of plain values: ``("oracle", "E7")``,
``("affine", (1, 20, 20))``, ``("dynkin", "A100")`` or
``("cli", ("affine", "2", "3", "5", ...))``.

Draws are stratified: a pool of inputs is sorted by an estimate of its cost,
each query has its own slot in that order, and the seed picks one of the few
inputs nearest the slot.  Every seed therefore gets nearly the same spread
of small and large inputs, so the throughput and the latency quantiles
depend on the code and not on which seed the run got.

* ``oracle``: the brute-force Weyl-group count, as ``fec oracle`` runs it.
  Only 13 types have rank <= 7, so the set is one fixed multiset of
  them (one stratum per type) in a seeded order.  Small types are most of
  the set.  E7, D7, A7, E6, D6 and A6 come once each and are most of its
  time.  E8 (about 40 s per query) is left out.
* ``recursion``: cold library calls of the deletion recursions,
  ``e_affine(triple, CountCache())`` on admissible triples with mu <= 40
  and ``e_dynkin_recursive`` on A_n/D_n of rank <= 120.
* ``session``: ``fec`` commands run in one process through ``cli.main``.
  Most are ``affine ... --method all --cache {cache}`` on one cache file
  per pass, so cache hits and whole-file rewrites both grow through the
  pass.  The rest are ``dynkin``, ``forest`` and one fixed set of
  ``verify``/``table`` sweeps.  ``{cache}`` stands for the pass's cache
  file path.
"""
from __future__ import annotations

import random

from reference import admissible

WORKLOADS = ("oracle", "recursion", "session")

ORACLE_MIX = {
    "A1": 14, "A2": 14, "A3": 14, "A4": 14, "D4": 14, "A5": 12, "D5": 12,
    "A6": 1, "D6": 1, "E6": 1, "A7": 1, "D7": 1, "E7": 1,
}

RECURSION_MAX_MU = 40
RECURSION_MAX_RANK = 120
RECURSION_AFFINE, RECURSION_DYNKIN = 60, 40

SESSION_MAX_MU = 20
SESSION_MAX_RANK = 40
SESSION_AFFINE, SESSION_DYNKIN, SESSION_FOREST = 80, 15, 8
# Small brute-force checks, a fixed multiset: they sit near the session's p90.
SESSION_ORACLE = ("A1", "A2", "A3", "A4", "D4", "A4", "D4")
FOREST_PARTS = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8"]
# Seven equal Hurwitz sweeps make a block of equal latencies around the p90,
# so which affine cache misses a seed draws barely moves the p90.
SESSION_SWEEPS = [
    *[("verify", "hurwitz", "--max", "10")] * 7, ("verify", "hurwitz", "--max", "11"),
    ("verify", "hurwitz", "--max", "12"), ("verify", "hurwitz", "--max", "13"),
    ("verify", "tables", "--max-r", "6"), ("verify", "tables", "--max-r", "9"),
    ("verify", "cross", "--max-mu", "10"), ("verify", "cross", "--max-mu", "12"),
    ("table", "--affine", "--max-mu", "8"), ("table", "--affine", "--max-mu", "10"),
    ("table", "--dynkin", "--max-rank", "6"), ("table", "--dynkin", "--max-rank", "8"),
]
JITTER = 1  # a slot draws from the 2 * JITTER + 1 pool entries around it
CACHE = "{cache}"


def recursion_cost(triple: tuple[int, int, int]) -> int:
    """Cost estimate of a cold ``e_affine``: the sum of mu^2 over the triples
    its recursion reaches, which are the sorted triples below it."""
    a1, a2, a3 = triple
    return sum(
        (b1 + b2 + b3 - 1) ** 2
        for b1 in range(1, a1 + 1)
        for b2 in range(b1, a2 + 1)
        for b3 in range(b2, a3 + 1)
    )


def _stratified(pool: list, n: int, power: float, rng: random.Random) -> list:
    """One draw for each of n slots in the cost-sorted pool.

    Slot i sits at the quantile ((i + 1/2) / n)^power of the pool, so a power
    above 1 draws cheap inputs more often and keeps a few costly ones.
    """
    last = len(pool) - 1
    centres = (round(last * ((i + 0.5) / n) ** power) for i in range(n))
    return [pool[rng.randint(max(0, c - JITTER), min(last, c + JITTER))] for c in centres]


def _oracle_queries(rng: random.Random) -> list:
    drawn = [("oracle", t) for t, count in ORACLE_MIX.items() for _ in range(count)]
    rng.shuffle(drawn)
    return drawn


def _recursion_queries(rng: random.Random, triples: list, types: list) -> list:
    drawn = [("affine", t) for t in _stratified(triples, RECURSION_AFFINE, 3, rng)]
    drawn += [("dynkin", t) for t in _stratified(types, RECURSION_DYNKIN, 2, rng)]
    rng.shuffle(drawn)
    return drawn


def _session_queries(rng: random.Random, triples: list, types: list) -> list:
    argvs = [
        ("affine", *map(str, t), "--method", "all", "--cache", CACHE)
        for t in _stratified(triples, SESSION_AFFINE, 1, rng)
    ]
    argvs += [
        ("dynkin", t, "--method", "both") for t in _stratified(types, SESSION_DYNKIN, 1, rng)
    ]
    argvs += [
        ("forest", *rng.sample(FOREST_PARTS, rng.randint(2, 4))) for _ in range(SESSION_FOREST)
    ]
    argvs += [("dynkin", t, "--method", "all") for t in SESSION_ORACLE]
    argvs += SESSION_SWEEPS
    rng.shuffle(argvs)
    return [("cli", argv) for argv in argvs]


def _types(low: int, high: int) -> list[str]:
    """A_n and D_n for low <= n <= high, by rank."""
    return [f"{f}{n}" for n in range(low, high + 1) for f in "AD" if f == "A" or n >= 4]


def queries(workload: str, seed: int) -> list:
    """The query set of one run of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        return _oracle_queries(rng)
    if workload == "recursion":
        triples = sorted(admissible(RECURSION_MAX_MU), key=recursion_cost)
        return _recursion_queries(rng, triples, _types(1, RECURSION_MAX_RANK))
    if workload == "session":
        triples = sorted(admissible(SESSION_MAX_MU), key=recursion_cost)
        return _session_queries(rng, triples, _types(4, SESSION_MAX_RANK))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
