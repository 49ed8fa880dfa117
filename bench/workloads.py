"""The benchmark's two workloads: job lists, items per job and exact checks.

Four job lists, each loading a different layer:

- spectrum: search's vectorized mask scan; the banded job scans masks
  that fall outside its size band.
- covering: counting's 2^n enumeration and its miss table.
- embed: grouplattice thickening and mixed-radix folds; setops verifies a
  few large images.
- families: setops in two shapes (a few sets spanning 1e5 to 1e6, and
  about 1e4 tiny sets scored by random_search) under constructions.

They are paired into two workloads, ``scan`` (spectrum and covering:
numpy mask enumeration) and ``sets`` (embed and families: big-int set
arithmetic), so that each layer does most of the work of one workload and
is idle, or nearly so, on the other.  Two workloads rather than four let
each run measure for longer within the benchmark's time budget, which is
what keeps the run-to-run spread inside its bounds on a small shared host.

A job is one CLI command, run through ``mstdkit.cli.main``, or one call of
a library entry point that has no subcommand.  Its output text is checked
against a digest taken from the seed commit (``expected.json``) when the
output does not depend on the workload seed, and against the independent
answers in ``oracles`` in every case.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import oracles
from mstdkit import search

RANDOM_SEARCH_ARGS = (40, 12, 10000)  # range_max, size, trials

FAMILY_PARAMS = {
    "t1": {"m": 800, "d": 3, "k": 800},
    "t3": {"m": 500, "d": 7, "k": 500},
    "t2": {"k": 20000},
    "hr": {"k": 20000},
    "gap": {"m": 400, "k": 300, "r": 40, "s": 72, "p": {"base": 0, "dims": [[2, 0, 5], [11, 0, 3]]}},
    "gap2": {"m": 600, "k": 400, "r": 40, "s": 60, "p": {"base": 0, "dims": [[3, 0, 4]]}},
}


class CheckFailed(Exception):
    """A job's output disagrees with a known answer."""


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Job:
    name: str  # stable key of the job, also its key in expected.json
    items: Callable[[str], int]  # work items the job completes, from its output
    check: Callable[[str], None]  # raises CheckFailed on a wrong output
    argv: Optional[list] = None  # CLI job: the arguments of mstdkit.cli.main
    call: Optional[Callable] = None  # library job: returns a report with to_dict()
    seeded: bool = False  # output depends on the workload seed, so no stored digest
    largest: bool = False  # the job whose latency is printed as max_job_s


def derive_seed(seed: int, tag: str) -> int:
    """A program seed for one input, derived from the workload seed."""
    return random.Random(f"{seed}/{tag}").randrange(1 << 31)


# -- spectrum ------------------------------------------------------------------


def check_spectrum(n: int, lo: int, hi: int, text: str):
    rep = json.loads(text)
    spec = {int(k): v for k, v in rep["spectrum"].items()}
    wit = {int(k): v for k, v in rep["witnesses"].items()}
    expect(rep["range_max"] == n, "range_max echoed")
    expect(rep["enumerated"] == oracles.band_size(n, lo, hi), "enumerated = band size")
    expect(sum(spec.values()) == rep["enumerated"], "spectrum counts sum to band size")
    expect(set(wit) == set(spec), "one witness per delta")
    for d, w in wit.items():
        expect(w == oracles.normalized(w) and w[-1] <= n, f"witness {w} normalized")
        expect(lo <= len(w) <= hi, f"witness {w} in band")
        expect(oracles.py_delta(w) == d, f"witness {w} has delta {d}")
        if d > 0:
            expect(len(w) >= oracles.HEGARTY_MIN_SIZE, f"MSTD witness {w} has >= 8 elements")
    if n <= 14:
        brute_spec, brute_wit, mstd = oracles.brute_spectrum(n, lo, hi)
        expect((spec, wit) == (brute_spec, brute_wit), "brute-force spectrum and witnesses")
        expect(all(len(a) >= oracles.HEGARTY_MIN_SIZE for a in mstd), "no MSTD set below 8 elements")
    if n <= 13:
        expect(max(spec) <= 0, f"no subset of [0,{n}] has positive delta")
    if n == 14 and (lo, hi) == (1, 15):
        expect(max(spec) == 1 and spec[1] == 4, "four subsets of [0,14] have delta +1")
        expect(oracles.HEGARTY_SET in mstd, "the Hegarty set is one of them")


def spectrum_job(n: int, lo: int, hi: int, largest: bool = False) -> Job:
    return Job(
        name=f"spectrum n={n} size={lo}..{hi}",
        argv=["spectrum", "--range-max", str(n), "--min-size", str(lo), "--max-size", str(hi)],
        items=lambda text: json.loads(text)["enumerated"],
        check=partial(check_spectrum, n, lo, hi),
        largest=largest,
    )


def spectrum_jobs() -> list[Job]:
    jobs = [spectrum_job(n, 1, n + 1, largest=n == 21) for n in range(1, 22)]
    jobs.append(spectrum_job(22, 6, 10))
    return jobs


# -- covering --------------------------------------------------------------------


def check_count(n: int, table: bool, text: str):
    rep = json.loads(text)
    misses = {(b, p): oracles.miss_closed_form(n, b, p) for b in range(n) for p in (0, 1)}
    expect(rep["n"] == n, "n echoed")
    expect(rep["bound"] == 2**n - sum(misses.values()), "bound is the union bound")
    expect(rep["covering"] >= rep["bound"] and rep["meets_bound"] is True, "covering >= bound")
    if table:
        rows = [{"g": [b, p], "count": misses[(b, p)]} for b, p in sorted(misses)]
        expect(rep["misses"] == rows, "miss table matches the closed form")
    if n <= 10:
        expect(rep["covering"] == oracles.brute_covering(n), "brute-force covering count")
    if n == 7:
        expect((rep["covering"], rep["bound"]) == (28, 16), "n=7: 28 of 128 cover, bound 16")


def check_group_search(n: int, text: str):
    rep = json.loads(text)
    els = rep["elements"]
    expect(rep["moduli"] == [n, 2], "moduli")
    expect([e[0] for e in els] == list(range(n)), "one point per residue")
    expect(all(e[1] in (0, 1) for e in els), "parity bits")
    sums, diffs = oracles.parity_graph_sets(n, [e[1] for e in els])
    expect(len(sums) == 2 * n, "sumset covers Z/n x Z/2")
    expect(len(diffs) <= 2 * n - 1, "difference set misses (0, 1)")


def count_job(n: int, table: bool) -> Job:
    argv = ["count", "--n", str(n)] + (["--table"] if table else [])
    return Job(
        name=" ".join(argv),
        argv=argv,
        items=lambda text, n=n: 1 << n,
        check=partial(check_count, n, table),
    )


def group_search_job(n: int, seed: Optional[int]) -> Job:
    argv = ["group-search", "--n", str(n), "--strategy", "first" if seed is None else "random"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Job(
        name=f"group-search n={n} {argv[4]}",
        argv=argv,
        items=lambda text: 0,
        check=partial(check_group_search, n),
        seeded=seed is not None,
    )


def covering_jobs(seed: int) -> list[Job]:
    jobs = [count_job(n, table=True) for n in range(4, 22)]
    jobs.append(count_job(22, table=False))
    jobs += [group_search_job(n, None) for n in range(7, 25)]
    jobs += [group_search_job(n, derive_seed(seed, f"group-search/{n}")) for n in range(7, 25)]
    return jobs


# -- embed -------------------------------------------------------------------------


def first_covering_witness(n: int) -> str:
    """The first covering parity graph in mask order, as group-subset JSON."""
    for mask in range(1 << n):
        eps = [(mask >> i) & 1 for i in range(n)]
        if len(oracles.parity_graph_sets(n, eps)[0]) == 2 * n:
            return json.dumps({"moduli": [n, 2], "elements": [[i, e] for i, e in enumerate(eps)]})
    raise ValueError(f"no covering parity graph for n={n}")


def check_embed(n: int, text: str):
    rep = json.loads(text)
    s = rep["set"]
    expect(s == sorted(set(s)), "set strictly ascending")
    expect(len(s) == n * rep["t_used"] ** 2, "|image| = |A| * t^2")
    expect(rep["delta"] >= 1, "image is MSTD")
    expect(oracles.fft_delta(s) == rep["delta"], "delta matches the FFT oracle")
    if n == 7:
        got = (rep["t_used"], rep["m_used"], len(s), rep["delta"])
        expect(got == (2, 53, 28, 3), "n=7 embeds to 28 elements, delta 3, t=2, radix 53")


def embed_jobs(workdir: Path) -> list[Job]:
    jobs = []
    for n in range(7, 25):
        path = workdir / f"witness-n{n}.json"
        path.write_text(first_covering_witness(n))
        jobs.append(
            Job(
                name=f"embed n={n}",
                argv=["embed", "--input", str(path), "--t-max", "32"],
                items=lambda text: len(json.loads(text)["set"]),
                check=partial(check_embed, n),
                largest=n == 24,
            )
        )
    return jobs


# -- families ----------------------------------------------------------------------


def check_construct(family: str, text: str):
    rep = json.loads(text)
    s = rep["set"]
    expect(rep["family"] == family and rep["params"] == FAMILY_PARAMS[family], "echo")
    expect(s == sorted(set(s)), "set strictly ascending")
    expect(rep["delta"] >= 1, "built set is MSTD")
    expect(oracles.fft_delta(s) == rep["delta"], "delta matches the FFT oracle")


def check_random_search(seed: int, text: str):
    replay = oracles.random_search_report(*RANDOM_SEARCH_ARGS, seed)
    expect(json.loads(text) == replay, "random_search matches the Python-set replay")


def families_jobs(seed: int) -> list[Job]:
    jobs = [
        Job(
            name=f"construct {family}",
            argv=["construct", "--family", family, "--params", json.dumps(params)],
            items=lambda text: len(json.loads(text)["set"]),
            check=partial(check_construct, family),
        )
        for family, params in FAMILY_PARAMS.items()
    ]
    rs_seed = derive_seed(seed, "random_search")
    range_max, size, trials = RANDOM_SEARCH_ARGS
    jobs.append(
        Job(
            name="random_search",
            # looked up on the module at call time, so a traced rebinding applies
            call=lambda: search.random_search(range_max, size, trials, rs_seed),
            items=lambda text: size * trials,
            check=partial(check_random_search, rs_seed),
            seeded=True,
        )
    )
    return jobs


# name -> (job builder, the modules expected to hold the largest self time)
WORKLOADS = {
    "scan": (lambda seed, workdir: spectrum_jobs() + covering_jobs(seed), ("search", "counting")),
    "sets": (lambda seed, workdir: embed_jobs(workdir) + families_jobs(seed), ("grouplattice", "setops")),
}
