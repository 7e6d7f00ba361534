"""The benchmark's three workloads: jobs, their inputs and their checks.

A job is one library or CLI call.  `build` makes its inputs from scratch
(a new algebra and new Module objects, so no resolution or free-module
cache carries over from an earlier job) and is not timed; `run` is the
timed call; `check` compares the output with the reference answers in
reference.json and returns an error string, or None when it is correct.

Library functions are always reached through their module attribute
(`resolution.resolve`, not a name imported into this file), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from redhom import (algebra, cli, corpus, homalg, linalg, modules, reducing,
                    resolution, workspace)

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
EXAMPLES = Path("docs/examples")
P31 = 2**31 - 1


@dataclass
class Job:
    name: str
    build: Callable[[], tuple]
    run: Callable[..., object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    setup: Callable[[], None]       # builds, loads and imports paid once
    warmup: Callable[[], Job]
    jobs: Callable[[random.Random], list[Job]]  # one pass, seeded order
    pass_s: float                   # nominal seconds per pass, at reference speed
    trace_passes: int               # passes in a traced run


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _random_basis(mod, rng: random.Random):
    """The same module written in a seeded random basis: each action A
    becomes T^-1 A T for a random invertible T = L U (unit triangular)."""
    fld = mod.algebra.field
    n = mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = linalg.Matrix.from_rows(fld, lower) @ linalg.Matrix.from_rows(fld, upper)
    t_inv = t.inverse()
    acts = [t_inv @ a @ t for a in mod.var_actions]
    return modules.Module(mod.algebra, n, acts, label=mod.label)


# -- resolve-ext ---------------------------------------------------------------

RINGS = {
    "F2[x,y]/m2": (2, ["x", "y"], 2),
    "F3[x,y,z]/m2": (3, ["x", "y", "z"], 2),
    "Q[x,y]/m2": (None, ["x", "y"], 2),
    "Fp[x,y]/m2": (P31, ["x", "y"], 2),
    "F2[x,y]/m3": (2, ["x", "y"], 3),
    "Fp[x,y]/m3": (P31, ["x", "y"], 3),
}


def _ring(key: str):
    p, names, nil = RINGS[key]
    return algebra.build_algebra(linalg.Field(p), names, [], nil)


def _check_resolve_reference(ref: dict) -> None:
    """Cross-check the stored answers against closed forms."""
    for key, betti in ref["betti"].items():
        p, names, nil = RINGS[key]
        e = len(names)
        if nil == 2:
            want = [e**i for i in range(len(betti))]   # square-zero: e^i
        else:
            # k[x,y]/m^3 is Golod: P(t) = (1+t)^2 / (1 - 4t^2 - 3t^3)
            want = [1, 2, 5]
            while len(want) < len(betti):
                want.append(4 * want[-2] + 3 * want[-3])
        if betti != want:
            raise ValueError(f"reference betti for {key} is not the closed form")
    for key, dims in ref["ext_k_R"].items():
        e = len(RINGS[key][1])
        want = [e] + [(e * e - 1) * e**(i - 1) for i in range(1, len(dims))]
        if dims != want:
            raise ValueError(f"reference Ext(k, R) for {key} is not the closed form")
    if ref["betti"]["F2[x,y]/m3"] != ref["betti"]["Fp[x,y]/m3"]:
        raise ValueError("m^3 Betti numbers must not depend on the field")


def _resolve_job(key: str, window: int) -> Job:
    want = REFERENCE["resolve-ext"]["betti"][key][:window + 1]

    def build():
        return (modules.residue_field(_ring(key)),)

    def run(k):
        res = resolution.resolve(k)
        res.extend(window)
        return res.betti_list(window)

    return Job(f"resolve k {key} w{window}", build, run,
               lambda got: _expect(got, want, "betti"))


def _ext_job(key: str, window: int) -> Job:
    want = REFERENCE["resolve-ext"]["ext_k_R"][key][:window + 1]

    def build():
        alg = _ring(key)
        return modules.residue_field(alg), modules.free_module(alg, 1)

    return Job(f"ext k R {key} w{window}", build,
               lambda k, reg: homalg.ext_dims(k, reg, window),
               lambda got: _expect(got, want, "Ext dims"))


def _omega_job(key: str, window: int, rng: random.Random) -> Job:
    basis_seed = rng.randrange(2**32)

    def build():
        omega = homalg.canonical_module(_ring(key))
        return (_random_basis(omega, random.Random(basis_seed)),)

    return Job(f"Ext(w,w) vanishes {key} w{window}", build,
               lambda om: homalg.ext_vanishes_through(om, om, window),
               lambda got: _expect(got, (True, None), "Ext(w, w) vanishing"))


def _resolve_ext_setup() -> None:
    _check_resolve_reference(REFERENCE["resolve-ext"])
    for key in RINGS:
        _ring(key)


def _resolve_ext_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        _resolve_job("F2[x,y]/m2", 10),
        _resolve_job("F3[x,y,z]/m2", 6),
        _resolve_job("Q[x,y]/m2", 6),
        _resolve_job("Fp[x,y]/m2", 9),
        _resolve_job("F2[x,y]/m3", 7),
        _resolve_job("Fp[x,y]/m3", 7),
        _ext_job("F2[x,y]/m2", 8),
        _ext_job("F3[x,y,z]/m2", 4),
        _omega_job("F2[x,y]/m2", 7, rng),
    ]
    rng.shuffle(jobs)
    return jobs


# -- search-pool ---------------------------------------------------------------

# Acceptance criterion 03's search bounds.
C3_BOUNDS = dict(max_r=2, max_a=8, max_b=8, max_n=2, budget=200)
# (module, target) pairs: three found early, and three two-dimensional
# cokernels that exhaust the budget with either target.  randN is
# random_module(plane, 2, 2, N).  The exhausted searches of one target
# cost about the same, so the median and the tail each fall inside one
# group of similar jobs rather than on a boundary between two.
POOL = [("k", "pd"), ("R+k", "gdim"), ("k^3", "pd"),
        ("rand20", "pd"), ("rand26", "pd"), ("rand33", "pd"),
        ("rand20", "gdim"), ("rand26", "gdim"), ("rand33", "gdim")]


def _pool_module(name: str, alg, rng: random.Random):
    """A new module of the pool; plain cokernel modules are written in a
    seeded random basis, structured ones keep their construction."""
    k = modules.residue_field(alg)
    if name == "k":
        return k
    if name == "R+k":
        return modules.direct_sum([modules.free_module(alg, 1), k])
    if name == "k^3":
        return modules.power_module(k, 3)
    mod = corpus.random_module(alg, 2, 2, int(name[len("rand"):]))
    return _random_basis(mod, rng)


def _search_job(name: str, target: str, seed: int, rng: random.Random) -> Job:
    structured = REFERENCE["search-pool"]["structured"][name]
    basis_seed = rng.randrange(2**32)
    cfg = reducing.SearchConfig(seed=seed, **C3_BOUNDS)

    def build():
        alg = corpus.plane_algebra()
        return _pool_module(name, alg, random.Random(basis_seed)), target, cfg

    def check(result):
        short = result.found and result.sequence.r <= 1
        err = _expect(short, structured, "found with r <= 1 (criterion 03)")
        if err:
            return err
        fresh = _pool_module(name, corpus.plane_algebra(),
                             random.Random(basis_seed))
        err = _expect(corpus.structure_test(fresh)[0], structured,
                      "structure test")
        if err or not result.found:
            return err
        report = reducing.verify(result.sequence, window=cfg.window)
        return None if report.ok else f"found chain fails verify: {report.reason}"

    return Job(f"search {name} {target}", build,
               lambda mod, tgt, c: reducing.search(mod, tgt, c), check)


def _search_pool_setup() -> None:
    corpus.plane_algebra()


def _search_pool_jobs(seed: int):
    def jobs(rng: random.Random) -> list[Job]:
        out = [_search_job(name, target, seed, rng) for name, target in POOL]
        rng.shuffle(out)
        return out
    return jobs


# -- certify-cli ---------------------------------------------------------------


def _cli_job(spec: dict, seed: int) -> Job:
    argv = ["--workspace", str(EXAMPLES / spec["workspace"])] + spec["argv"]
    if spec.get("seeded"):
        argv += ["--seed", str(seed)]

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        if code != spec["exit"]:
            return f"exit code {code}, want {spec['exit']}"
        try:
            report = json.loads(stdout)   # exactly one JSON document
        except json.JSONDecodeError as exc:
            return f"stdout is not one JSON document: {exc}"
        for key, want in spec["fields"].items():
            got = report.get(key)
            if key in ("hypotheses", "conclusions"):
                got = [[e["name"], e["ok"]] for e in got or []]
            err = _expect(got, want, key)
            if err:
                return err
        return None

    return Job(" ".join(spec["argv"]) + f" @{spec['workspace']}",
               lambda: (list(argv),), run, check)


def _fixture_job(name: str) -> Job:
    def check(outcome):
        chosen = [f["name"] for f in outcome["fixtures"]]
        if chosen != [name]:
            return f"filter chose {chosen}, want exactly [{name!r}]"
        fx = outcome["fixtures"][0]
        return None if fx["ok"] else f"fixture failed: {fx.get('error') or fx['checks']}"

    return Job(f"corpus {name}", lambda: (name,),
               lambda n: corpus.run_corpus(name_filter=n), check)


def _certify_cli_setup() -> None:
    for path in sorted(EXAMPLES.glob("*.json")):
        workspace.load_workspace(str(path))


def _certify_cli_jobs(seed: int):
    ref = REFERENCE["certify-cli"]

    def jobs(rng: random.Random) -> list[Job]:
        out = [_cli_job(spec, seed) for spec in ref["commands"]]
        out += [_fixture_job(name) for name in ref["fixtures"]]
        rng.shuffle(out)
        return out
    return jobs


def workload(name: str, seed: int) -> Workload:
    if name == "resolve-ext":
        return Workload(name, _resolve_ext_setup,
                        lambda: _resolve_job("F2[x,y]/m2", 6),
                        _resolve_ext_jobs, pass_s=5.4, trace_passes=1)
    if name == "search-pool":
        return Workload(name, _search_pool_setup,
                        lambda: _search_job("k", "gdim", seed, random.Random(seed)),
                        _search_pool_jobs(seed), pass_s=4.2, trace_passes=1)
    if name == "certify-cli":
        first = REFERENCE["certify-cli"]["commands"][0]
        return Workload(name, _certify_cli_setup,
                        lambda: _cli_job(first, seed),
                        _certify_cli_jobs(seed), pass_s=1.1, trace_passes=4)
    raise KeyError(name)
