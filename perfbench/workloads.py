"""The three workloads: inputs (set-up), one timed round, and the jobs=2 pass.

Every workload calls the program through module attributes
(``catalog.classify``, ``symmetry.certify_trivial_automorphisms``, ...) so that
the tracer's wrappers see the calls.  The operation set of each workload is
fixed, so the share of failed operations is the same in every run; the seed
sets the order in which a round visits the operations, except for `member`,
where sympy's expression cache makes the order part of the input.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context

from wfano import catalog, irrational, membership, singular, symalg, symmetry
from wfano.wspace import WeightSystem

import calibrate
import checks
import jacobian

WORKLOADS = ("search", "reduce", "member")

#: the seven symmetry-route families, each sampled at seeds 0..39
REDUCE_FAMILIES = (19, 28, 39, 49, 59, 66, 84)
REDUCE_SEEDS = range(40)
QUICK_REDUCE_SEEDS = (0, 35)

#: (weights, degree) of the member list, all sampled at MEMBER_SEED: the
#: quartic (No. 1) and every index >= 2 family whose member check finished
#: within 10 s; heaviest first, so that the jobs=2 pass balances
MEMBER_SEED = 1
MEMBERS = (
    ((1, 1, 1, 1, 1), 4),
    ((1, 2, 3, 4, 5), 10),
    ((1, 1, 2, 2, 3), 6),
    ((1, 3, 4, 5, 7), 12),
    ((1, 1, 1, 1, 2), 4),
    ((1, 1, 2, 3, 3), 6),
    ((2, 3, 4, 5, 7), 14),
    ((1, 2, 3, 5, 7), 10),
    ((1, 1, 2, 3, 4), 6),
    ((1, 2, 3, 4, 5), 8),
    ((1, 1, 1, 1, 1), 3),
    ((1, 1, 1, 2, 2), 4),
    ((1, 4, 5, 6, 7), 12),
    ((1, 2, 2, 3, 3), 6),
    ((1, 1, 2, 3, 5), 6),
    ((1, 1, 1, 2, 3), 4),
    ((1, 1, 1, 1, 2), 3),
    ((2, 3, 4, 5, 7), 12),
    ((1, 2, 2, 3, 5), 6),
    ((1, 1, 2, 2, 3), 4),
    ((1, 2, 3, 3, 4), 6),
    ((1, 2, 3, 3, 5), 6),
    ((1, 1, 1, 1, 1), 2),
    ((1, 2, 3, 4, 5), 6),
    ((2, 3, 4, 5, 7), 10),
    ((3, 4, 5, 6, 7), 12),
)
QUICK_MEMBERS = (((1, 1, 1, 1, 1), 2), ((1, 2, 3, 3, 4), 6), ((3, 4, 5, 6, 7), 12))
#: checked before timing so that the lazy sympy import lands in set-up; the
#: list holds the same family at MEMBER_SEED, a different member
WARMUP = (((1, 1, 1, 1, 1), 2), 0)

QUICK_BOUNDS = dict(max_weight=10, max_degree=24)
#: the 130 verdict operations take about 30 ms, a single state of the
#: machine's speed; repeating them spreads the sample over half a second
VERDICT_PASSES = 20


@dataclass
class Round:
    """A timed phase [start, end] and the (start, end) of each timed operation."""

    start: float
    end: float
    ops: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def member_name(ws: WeightSystem) -> str:
    return "X_{}({})".format(ws.degree, ",".join(map(str, ws.weights)))


def member_inputs(quick: bool) -> list[tuple[str, WeightSystem, symalg.GradedPolynomial]]:
    out = []
    for weights, degree in QUICK_MEMBERS if quick else MEMBERS:
        ws = WeightSystem(weights, degree)
        out.append((member_name(ws), ws, symalg.sample_general_member(ws, seed=MEMBER_SEED)))
    return out


def _begin(state: dict, op: int) -> None:
    """Label the spans that follow with an operation id (traced run only)."""
    tracer = state.get("tracer")
    if tracer is not None:
        tracer.op = op


# ---------------------------------------------------------------------------
# set-up


def prepare(workload: str, seed: int, quick: bool) -> dict:
    """Everything a round needs, including the program's lazy set-up."""
    rng = random.Random(seed)
    state: dict = {"quick": quick, "rng": rng}
    if workload == "search":
        state["bounds"] = catalog.SearchBounds(**QUICK_BOUNDS) if quick else catalog.SearchBounds()
    elif workload == "reduce":
        ops = [(f, s) for f in REDUCE_FAMILIES for s in (QUICK_REDUCE_SEEDS if quick else REDUCE_SEEDS)]
        state["ops"] = ops
        state["reference"] = {f: symalg.reference_support(f) for f in REDUCE_FAMILIES}
        state["eliminated"] = {f: symalg.builtin_plan(f).eliminated() for f in REDUCE_FAMILIES}
    elif workload == "member":
        stored = json.loads(jacobian.STORE.read_text())
        members = member_inputs(quick)
        state["members"] = members
        state["certs"] = {}
        for name, ws, f in members:
            cert = stored.get(name)
            if cert is None or cert["digest"] != jacobian.digest(f.terms):
                raise SystemExit(f"no stored Jacobian certificate for the member {name}")
            state["certs"][name] = cert
        (weights, degree), wseed = WARMUP
        warm = symalg.sample_general_member(WeightSystem(weights, degree), seed=wseed)
        symalg.quasismooth_member(warm)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return state


# ---------------------------------------------------------------------------
# search


def _verdict_op(ws: WeightSystem):
    """One septuple's verdict through the public API, as `wfano verdict` does."""
    report = membership.membership_report(ws)
    basket = singular.singular_points_general(ws)
    record = catalog.FamilyRecord(
        ws=ws, membership=report, basket=basket, paper_number=catalog.FAMILY_LABELS.get(ws.septuple)
    )
    return record, irrational.decide(record)


def _empty_representable(state: dict) -> None:
    """Empty the `representable` cache, as a fresh `wfano verdict` process
    has it; cache_clear also resets the counts, so they are kept in
    state["representable"] as (hits, misses) for the traced run."""
    info = membership.representable.cache_info()
    hits, misses = state.get("representable", (0, 0))
    state["representable"] = (hits + info.hits, misses + info.misses)
    membership.representable.cache_clear()


def search_round(state: dict) -> Round:
    _begin(state, 0)
    t0 = time.perf_counter()
    records = catalog.classify(state["bounds"])
    verdicts = [irrational.decide(r) for r in records]
    catalog.render_markdown(records)
    t1 = time.perf_counter()

    order = list(range(len(records)))
    state["rng"].shuffle(order)
    results = {}
    ops = []
    for _ in range(VERDICT_PASSES):
        for i in order:
            _begin(state, len(ops) + 1)
            _empty_representable(state)
            t = time.perf_counter()
            results[i] = _verdict_op(records[i].ws)
            ops.append((t, time.perf_counter()))
    rnd = Round(t0, t1, ops, attempted=2 + len(records) + len(ops))

    text = catalog.catalog_json(records)
    rnd.problems += checks.catalog_problems(text, full=not state["quick"])
    rnd.problems += checks.verdict_problems({r.septuple: v.values for r, v in zip(records, verdicts)})
    for i, (record, verdict) in results.items():
        if record.to_dict() != records[i].to_dict() or verdict.values != verdicts[i].values:
            rnd.problems.append(f"{records[i].septuple}: the verdict operation disagrees with the report")
    path = state["out"] / "catalog-reloaded.json"
    catalog.save_catalog(records, str(path))
    rnd.problems += checks.same_catalog(text, catalog.catalog_json(catalog.load_catalog(str(path))), "save -> load_catalog")
    path.unlink()
    rnd.detail["catalog"] = text
    return rnd


def search_jobs2(state: dict) -> Round:
    # classify forks its own workers; sample the machine inside each of them
    os.register_at_fork(after_in_child=partial(calibrate.start_in_worker, str(state["out"])))
    t0 = time.perf_counter()
    records = catalog.classify(state["bounds"], jobs=2)
    rnd = Round(t0, time.perf_counter(), attempted=1)
    rnd.detail["catalog"] = catalog.catalog_json(records)
    return rnd


def _pool(state: dict) -> ProcessPoolExecutor:
    """Two spawned workers, each sampling the machine (calibrate.py)."""
    return ProcessPoolExecutor(
        max_workers=2,
        mp_context=get_context("spawn"),
        initializer=calibrate.start_in_worker,
        initargs=(str(state["out"]),),
    )


# ---------------------------------------------------------------------------
# reduce


def _certify(family: int, seed: int):
    """(certificate, None) or (None, error text) for one draw."""
    try:
        return symmetry.certify_trivial_automorphisms(family, seed), None
    except (ValueError, RuntimeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _reduce_outcome(family: int, seed: int, cert, reference, eliminated) -> tuple[str, list[str]]:
    return checks.reduce_outcome(
        family,
        seed,
        cert.support,
        reference,
        eliminated,
        cert.group.free_rank,
        cert.group.torsion,
        cert.has_involution,
        cert.stabilizer_order,
    )


def _tally(rnd: Round, key: tuple[int, int], outcome: str, problems: list[str]) -> None:
    rnd.attempted += 1
    rnd.problems += problems
    if outcome != "ok":
        rnd.failed += 1
        rnd.detail.setdefault(outcome, []).append(f"{key[0]}/{key[1]}")


def reduce_round(state: dict) -> Round:
    ops = list(state["ops"])
    state["rng"].shuffle(ops)
    done = []
    t0 = time.perf_counter()
    for k, (family, seed) in enumerate(ops):
        _begin(state, k)
        t = time.perf_counter()
        cert, error = _certify(family, seed)
        done.append((family, seed, cert, error, (t, time.perf_counter())))
    rnd = Round(t0, time.perf_counter())
    for family, seed, cert, error, span in done:
        if cert is None:
            _tally(rnd, (family, seed), "error", [f"family {family} seed {seed}: {error}"])
            continue
        rnd.ops.append(span)
        outcome, problems = _reduce_outcome(
            family, seed, cert, state["reference"][family], state["eliminated"][family]
        )
        _tally(rnd, (family, seed), outcome, problems)
    return rnd


def _reduce_task(op: tuple[int, int]) -> tuple[str, list[str]]:
    family, seed = op
    cert, error = _certify(family, seed)
    if cert is None:
        return "error", [f"family {family} seed {seed}: {error}"]
    return _reduce_outcome(
        family, seed, cert, symalg.reference_support(family), symalg.builtin_plan(family).eliminated()
    )


def reduce_jobs2(state: dict) -> Round:
    ops = state["ops"]
    t0 = time.perf_counter()
    with _pool(state) as pool:
        outcomes = list(pool.map(_reduce_task, ops, chunksize=4))
    rnd = Round(t0, time.perf_counter())
    for op, (outcome, problems) in zip(ops, outcomes):
        _tally(rnd, op, outcome, problems)
    return rnd


# ---------------------------------------------------------------------------
# member


def _member_result(name: str, f, verdict, cert: dict) -> tuple[str, list[str]]:
    return verdict.status, checks.member_problems(name, f.terms, verdict.status, verdict.witness, cert)


def member_round(state: dict) -> Round:
    # fixed order: sympy's expression cache makes the order an input
    members = state["members"]
    done = []
    t0 = time.perf_counter()
    for k, (name, ws, f) in enumerate(members):
        _begin(state, k)
        t = time.perf_counter()
        verdict = symalg.quasismooth_member(f)
        done.append((name, f, verdict, (t, time.perf_counter())))
    rnd = Round(t0, time.perf_counter())
    for name, f, verdict, span in done:
        rnd.ops.append(span)
        status, problems = _member_result(name, f, verdict, state["certs"][name])
        rnd.attempted += 1
        rnd.problems += problems
        rnd.detail.setdefault(status, []).append(name)
    return rnd


def _member_task(task: tuple) -> tuple[str, list[str]]:
    name, f, cert = task
    return _member_result(name, f, symalg.quasismooth_member(f), cert)


def member_jobs2(state: dict) -> Round:
    tasks = [(name, f, state["certs"][name]) for name, _, f in state["members"]]
    t0 = time.perf_counter()
    with _pool(state) as pool:
        results = list(pool.map(_member_task, tasks, chunksize=1))
    rnd = Round(t0, time.perf_counter())
    for _, problems in results:
        rnd.attempted += 1
        rnd.problems += problems
    return rnd


ROUNDS = {"search": search_round, "reduce": reduce_round, "member": member_round}
JOBS2 = {"search": search_jobs2, "reduce": reduce_jobs2, "member": member_jobs2}

