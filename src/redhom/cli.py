"""Command-line surface: one workspace in, one JSON report on stdout.

Human-readable one-liners go to stderr; stdout carries a single
deterministic JSON document (sorted keys, no timestamps) embedding the
tool version and every window and seed that shaped the result.
Exit codes: 0 success or accept, 1 reject, fail, or absent, 2 malformed input
located by a JSON pointer (in the workspace's version or algebra, or in a
module or certificate the command names, checked when first read, such as a
certificate step whose power `a` or `b`, or `n`-th syzygy, would pass
`resolution.MAX_STEP_BYTES`), a bound out of range (a negative `--window`,
`--max-r` or `--samples`, or `--budget`, `--max-a`, `--max-b` or `--max-n`
below 1), a command line that does not parse, a workspace or certificate file
nested too deeply to read, a `--save` path that cannot be written, or
`theorem main` at `--window 0` (pointer ""), 3 an internal error (any other
exception inside a command: a `HomAlgError`, a `ResolutionError`, including a
resolution step, an Ext transition or the Hom system of a `dual` or
`pushforward` refused past the cap, a failed assertion or a fault; pointer "").
`main(argv)` may be called many times in one process with the same output:
one parser tree per process, each subcommand's parser built on first use.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields

from . import __version__
from .homalg import (
    HomAlgError,
    biduality,
    ext_dims,
    pushforward,
    r_dual,
)
from .invariants import (
    check_P_transfer,
    check_cor33,
    check_main_theorem,
    check_prop27,
    check_t2,
)
from .reducing import (
    CertificateError,
    InputError,
    SearchConfig,
    load_certificate,
    save_certificate,
    search,
    sequence_to_dict,
    transform_cosyzygy,
    transform_syzygy,
    verify,
)
from .resolution import resolve
from .workspace import load_workspace


class _UsageError(Exception):
    """A command line the parser rejects: args are (command, message)."""


class _Parser(argparse.ArgumentParser):
    """Turns argparse's usage errors into `_UsageError`, so they get the
    JSON error document; subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(" ".join(self.prog.split()[1:]), message)


class _Lazy(argparse._SubParsersAction):
    """Subcommands whose parsers are built when first chosen and kept; until
    then the names, as keys, give the choices, usage and error messages."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self._name_parser_map[values[0]] is None:
            child = self._parser_class(prog=f"{self._prog_prefix} {values[0]}")
            self._name_parser_map[values[0]] = child  # keeps the key order
            _fill(child)
        super().__call__(parser, namespace, values, option_string)


_WINDOW = ("--window", {"type": int, "default": 10})
# One integer flag per `SearchConfig` field, --max-r for max_r.
_SEARCH = [("--" + f.name.replace("_", "-"),
            {"type": int, "default": f.default}) for f in fields(SearchConfig)]

# The command grammar: each leaf path, run by `_cmd_<path joined by _>`,
# and its arguments, each a positional name or (name, add_argument kwargs).
COMMANDS = {
    "algebra info": [],
    "resolve": ["module", _WINDOW],
    "ext": ["source", "target", _WINDOW],
    "dual": ["module"],
    "pushforward": ["module"],
    "reduce search": [
        "module", ("--target", {"choices": ["pd", "gdim"], "required": True}),
        ("--save", {"help": "write the found certificate here"}), *_SEARCH],
    "reduce verify": [("certificate", {
        "help": "certificate name in the workspace, or a JSON path"}), _WINDOW],
    "reduce transform syzygy": ["certificate", _WINDOW, ("--save", {})],
    "reduce transform cosyzygy": ["certificate", ("module", {
        "help": "the module whose syzygy the chain reduces"}), _WINDOW,
        ("--save", {})],
    "theorem main": ["module", "certificate", _WINDOW],
    "theorem t2": ["module", "certificate", _WINDOW],
    "theorem prop27": ["module", *_SEARCH],
    "theorem cor33": _SEARCH,
    "theorem ptransfer": ["certificate", ("module", {
        "help": "the fixed comparison module"}), _WINDOW],
    "corpus run": [("--filter", {"default": ""})],
}
_DESTS = ("command", "sub", "direction")  # subcommand name at each depth


def _fill(parser) -> None:
    """Give a leaf's parser its arguments, and a group's parser the names
    of its children, whose parsers are built when chosen."""
    words = parser.prog.split()[1:]  # "redhom reduce" -> ["reduce"]
    path = " ".join(words)
    if path in COMMANDS:
        for arg in COMMANDS[path]:
            name, kwargs = (arg, {}) if isinstance(arg, str) else arg
            parser.add_argument(name, **kwargs)
        return
    sub = parser.add_subparsers(dest=_DESTS[len(words)], required=True,
                                action=_Lazy)
    sub._name_parser_map.update(dict.fromkeys(
        p.split()[len(words)] for p in COMMANDS
        if p.split()[:len(words)] == words))


def _config_from(args) -> SearchConfig:
    return SearchConfig(**{f.name: getattr(args, f.name)
                           for f in fields(SearchConfig)})


def build_parser() -> argparse.ArgumentParser:
    """The top parser; each subcommand's parser is built when chosen."""
    top = _Parser(
        prog="redhom",
        description="exact homological invariants and chain certificates "
                    "over Artinian local algebras")
    top.add_argument("--workspace", help="workspace JSON file")
    _fill(top)
    return top


_parser = functools.cache(build_parser)


def _emit(report: dict, summary: str, code: int) -> int:
    report["tool_version"] = __version__
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if summary:
        sys.stderr.write(summary + "\n")
    return code


def _need_workspace(args):
    if not args.workspace:
        raise InputError("", "this command needs --workspace")
    return load_workspace(args.workspace)


def _certificate(ws, args):
    name = args.certificate
    if name in ws.certificates:
        return ws.certificate(name)
    if name.endswith(".json"):
        try:
            return load_certificate(name, algebra=ws.algebra)
        except OSError as exc:
            raise InputError(f"/certificates/{name}",
                             f"cannot read certificate file: {exc}")
    return ws.certificate(name)  # raises with the /certificates pointer


def _save(seq, path) -> None:
    """Write `seq` to the --save path, if one was given."""
    if path:
        try:
            save_certificate(seq, path)
        except OSError as exc:
            raise InputError("", f"cannot write certificate file "
                                 f"{path}: {exc.strerror or exc}")


def _cmd_algebra_info(args) -> int:
    ws = _need_workspace(args)
    report = {"command": "algebra info", "algebra": ws.algebra.summary()}
    return _emit(report, f"algebra: {ws.algebra!r}", 0)


def _cmd_resolve(args) -> int:
    ws = _need_workspace(args)
    mod = ws.module(args.module)
    res = resolve(mod)
    betti = res.betti_list(args.window)
    report = {"command": "resolve", "module": args.module,
              "window": args.window, "betti": betti,
              "terminated_at": res.terminated_at(args.window)}
    return _emit(report, f"betti numbers of {args.module}: {betti}", 0)


def _cmd_ext(args) -> int:
    ws = _need_workspace(args)
    dims = ext_dims(ws.module(args.source), ws.module(args.target),
                    args.window)
    report = {"command": "ext", "source": args.source,
              "target": args.target, "window": args.window, "dims": dims}
    return _emit(report,
                 f"Ext^i({args.source}, {args.target}) dims: {dims}", 0)


def _cmd_dual(args) -> int:
    ws = _need_workspace(args)
    mod = ws.module(args.module)
    ev = biduality(mod)
    dual, torsionless, reflexive = r_dual(mod).module, ev.is_injective(), ev.is_isomorphism()
    report = {"command": "dual", "module": args.module, "dim": mod.dim,
              "dual_dim": dual.dim, "dual_min_gens": dual.gens_count(),
              "torsionless": torsionless, "reflexive": reflexive}
    return _emit(report,
                 f"dual of {args.module}: dim {dual.dim}, "
                 f"torsionless={torsionless} reflexive={reflexive}", 0)


def _cmd_pushforward(args) -> int:
    ws = _need_workspace(args)
    mod = ws.module(args.module)
    try:
        ses = pushforward(mod)
    except HomAlgError as exc:
        report = {"command": "pushforward", "module": args.module,
                  "embeds": False, "reason": str(exc)}
        return _emit(report, f"pushforward of {args.module}: {exc}", 1)
    rank = ses.middle.dim // mod.algebra.dim
    report = {"command": "pushforward", "module": args.module,
              "embeds": True, "free_rank": rank, "forward_dim": ses.right.dim}
    return _emit(report, f"{args.module} embeds into a rank {rank} free module", 0)


def _step_summaries(seq) -> list:
    return [{"a": s.a, "b": s.b, "n": s.n,
             "middle_dim": s.sequence.middle.dim}
            for s in seq.steps]


def _cmd_reduce_search(args) -> int:
    ws = _need_workspace(args)
    mod = ws.module(args.module)
    cfg = _config_from(args)
    result = search(mod, args.target, cfg)
    report = {"command": "reduce search", "module": args.module,
              "target": args.target, "bounds": asdict(cfg),
              "found": result.found, "reason": result.reason,
              "candidates": result.candidates,
              "exhausted": result.exhausted}
    if result.found:
        report["r"] = result.sequence.r
        report["steps"] = _step_summaries(result.sequence)
        report["certificate"] = sequence_to_dict(result.sequence)
        _save(result.sequence, args.save)
        return _emit(report,
                     f"found a chain with r = {result.sequence.r} "
                     f"for {args.module} (target {args.target})", 0)
    return _emit(report, f"no chain found: {result.reason}", 1)


def _cmd_reduce_verify(args) -> int:
    ws = _need_workspace(args)
    seq = _certificate(ws, args)
    rep = verify(seq, window=args.window)
    report = {"command": "reduce verify", "certificate": args.certificate,
              "window": args.window, "accepted": rep.ok,
              "reason": rep.reason, "step": rep.step,
              "target": rep.target, "r": rep.r, "terminal": rep.terminal}
    if rep.ok:
        return _emit(report,
                     f"certificate accepted (r = {rep.r}, "
                     f"target {rep.target})", 0)
    return _emit(report,
                 f"certificate rejected at step {rep.step}: {rep.reason}", 1)


def _transported(args, report, out, summary) -> int:
    report.update(ok=True, base_dim=out.base.dim, r=out.r,
                  steps=_step_summaries(out), result=sequence_to_dict(out))
    _save(out, args.save)
    return _emit(report, summary, 0)


def _cmd_reduce_transform_syzygy(args) -> int:
    ws = _need_workspace(args)
    seq = _certificate(ws, args)
    report = {"command": "reduce transform syzygy",
              "certificate": args.certificate, "window": args.window}
    try:
        out = transform_syzygy(seq, window=args.window)
    except CertificateError as exc:
        report.update(ok=False, reason=str(exc))
        return _emit(report, f"transform failed: {exc}", 1)
    return _transported(args, report, out, f"chain transported to the "
                        f"syzygy (base dim {out.base.dim})")


def _cmd_reduce_transform_cosyzygy(args) -> int:
    ws = _need_workspace(args)
    seq = _certificate(ws, args)
    mod = ws.module(args.module)
    report = {"command": "reduce transform cosyzygy",
              "certificate": args.certificate, "module": args.module,
              "window": args.window, "reason": ""}
    try:
        out = transform_cosyzygy(seq, mod, window=args.window)
    except CertificateError as exc:
        report.update(ok=False, reason=str(exc))
        return _emit(report, f"transport rejected: {exc}", 1)
    return _transported(args, report, out,
                        f"chain transported back to {args.module}")


def _theorem(args, rep) -> int:
    report = {"command": f"theorem {args.sub}", "theorem": rep.name,
              "ok": rep.ok, "window": rep.window,
              "hypotheses": rep.hypotheses, "conclusions": rep.conclusions}
    verdict = "holds" if rep.ok else "FAILED"
    return _emit(report, f"theorem {args.sub}: {verdict}", 0 if rep.ok else 1)


def _cmd_theorem_main(args) -> int:
    if args.window < 1:  # the splice needs the first free hull
        raise ValueError(f"--window must be at least 1 for theorem main, "
                         f"got {args.window}")
    ws = _need_workspace(args)
    return _theorem(args, check_main_theorem(
        ws.module(args.module), _certificate(ws, args), window=args.window))


def _cmd_theorem_t2(args) -> int:
    ws = _need_workspace(args)
    return _theorem(args, check_t2(
        ws.module(args.module), _certificate(ws, args), window=args.window))


def _cmd_theorem_prop27(args) -> int:
    ws = _need_workspace(args)
    return _theorem(args, check_prop27(ws.algebra, ws.module(args.module),
                                       config=_config_from(args)))


def _cmd_theorem_cor33(args) -> int:
    ws = _need_workspace(args)
    return _theorem(args, check_cor33(ws.algebra, window=args.window,
                                      config=_config_from(args)))


def _cmd_theorem_ptransfer(args) -> int:
    ws = _need_workspace(args)
    return _theorem(args, check_P_transfer(
        _certificate(ws, args), ws.module(args.module), window=args.window))


def _cmd_corpus_run(args) -> int:
    from .corpus import run_corpus
    outcome = run_corpus(name_filter=args.filter)
    report = {"command": "corpus run", "filter": args.filter}
    report.update(outcome)
    passed = sum(1 for f in outcome["fixtures"] if f["ok"])
    total = len(outcome["fixtures"])
    return _emit(report, f"corpus: {passed}/{total} fixtures pass",
                 0 if outcome["all_ok"] else 1)


def _check_bounds(args) -> None:
    """Reject bounds that would silently yield empty results."""
    for name, least in (("window", 0), ("budget", 1), ("max_a", 1),
                        ("max_b", 1), ("max_n", 1), ("max_r", 0),
                        ("samples", 0)):
        value = getattr(args, name, least)
        if value < least:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def _error(command: str, pointer: str, message: str, summary: str, code: int) -> int:
    report = {"command": command, "error": {"pointer": pointer, "message": message}}
    return _emit(report, summary, code)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        command, message = exc.args
        return _error(command, "", message, f"usage error: {message}", 2)
    leaf = "_".join(getattr(args, d) for d in _DESTS if hasattr(args, d))
    try:
        _check_bounds(args)
        return globals()["_cmd_" + leaf](args)
    except InputError as exc:
        return _error(args.command, exc.pointer, exc.message,
                      f"input error at {exc.pointer or '/'}: {exc.message}", 2)
    except CertificateError as exc:
        report = {"command": args.command, "ok": False, "reason": str(exc)}
        return _emit(report, f"failed: {exc}", 1)
    except ValueError as exc:
        return _error(args.command, "", str(exc), f"input error: {exc}", 2)
    except Exception as exc:  # HomAlgError, ResolutionError or any other fault
        message = str(exc) or type(exc).__name__
        return _error(args.command, "", message,
                      f"internal error: {type(exc).__name__}: {message}", 3)


if __name__ == "__main__":
    sys.exit(main())
