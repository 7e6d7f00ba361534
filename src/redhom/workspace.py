"""Workspace files: one ring, named modules, named chain certificates.

A workspace is the JSON input every CLI command starts from.  Loading
checks the file, its version and its ring; each module and certificate is
checked when a command first reads it.  Every violation carries a JSON
pointer to the offending field, so the caller can say where a file went wrong.
"""

import json

from .linalg import Field, QQ
from .algebra import Algebra, AlgebraError, build_algebra
from .modules import Module, ModuleError, free_module, from_presentation, \
    residue_field
from .reducing import InputError, ReducingSequence, module_from_dict, \
    sequence_from_dict

WORKSPACE_TAG = "redhom-workspace/1"

MODULE_KINDS = ("free", "simple", "cyclic", "presentation", "actions")


class Workspace:
    def __init__(self, algebra: Algebra, modules: dict, certificates: dict):
        self.algebra = algebra
        self.modules = modules
        self.certificates = certificates
        self._built = {}

    def module(self, name: str) -> Module:
        return self._read("modules", name, _module_from_spec)

    def certificate(self, name: str) -> ReducingSequence:
        return self._read("certificates", name, _certificate_from_spec)

    def _read(self, section: str, name: str, build):
        pointer = f"/{section}/{name}"
        if pointer not in self._built:
            if name not in getattr(self, section):
                raise InputError(pointer, f"no {section[:-1]} named "
                                 f"{name!r} in the workspace")
            self._built[pointer] = build(
                self.algebra, name, getattr(self, section)[name], pointer)
        return self._built[pointer]


def _field_from_dict(data, pointer: str) -> Field:
    kind = data.get("field")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = data.get("p")
        if type(p) is not int or p < 2:
            raise InputError(pointer + "/p", "expected a prime characteristic")
        try:
            return Field(p)
        except ValueError as exc:
            raise InputError(pointer + "/p", str(exc))
    raise InputError(pointer + "/field", "expected \"Fp\" or \"Q\"")


def _algebra_from_dict(data, pointer: str) -> Algebra:
    if not isinstance(data, dict):
        raise InputError(pointer, "expected an object")
    fld = _field_from_dict(data, pointer)
    vars = data.get("vars")
    if (not isinstance(vars, list)
            or not all(isinstance(v, str) and v for v in vars)):
        raise InputError(pointer + "/vars",
                         "expected a list of variable names")
    nilp = data.get("nilpotency")
    if type(nilp) is not int or nilp < 1:
        raise InputError(pointer + "/nilpotency",
                         "expected a positive integer")
    rels = data.get("relations", [])
    if not isinstance(rels, list) or not all(isinstance(r, str)
                                             for r in rels):
        raise InputError(pointer + "/relations",
                         "expected a list of polynomial strings")
    try:
        return build_algebra(fld, list(vars), list(rels), nilp)
    except (AlgebraError, ValueError) as exc:
        raise InputError(pointer, str(exc))


def _module_from_spec(alg: Algebra, name: str, data, pointer: str) -> Module:
    if not isinstance(data, dict):
        raise InputError(pointer, "expected an object")
    kind = data.get("kind")
    if kind == "free":
        rank = data.get("rank")
        if type(rank) is not int or rank < 0:
            raise InputError(pointer + "/rank",
                             "expected a nonnegative integer")
        return free_module(alg, rank, label=name)
    if kind == "simple":
        return residue_field(alg)
    if kind == "cyclic":
        rels = data.get("relations")
        if not isinstance(rels, list) or not all(isinstance(r, str)
                                                 for r in rels):
            raise InputError(pointer + "/relations",
                             "expected a list of element strings")
        try:
            return from_presentation(alg, 1, [list(rels)], label=name)
        except (ModuleError, AlgebraError, ValueError) as exc:
            raise InputError(pointer + "/relations", str(exc))
    if kind == "presentation":
        gens = data.get("generators")
        if type(gens) is not int or gens < 0:
            raise InputError(pointer + "/generators",
                             "expected a nonnegative integer")
        rels = data.get("relations", [])
        if not isinstance(rels, list) or not all(
                isinstance(row, list) and all(isinstance(e, str) for e in row)
                for row in rels):
            raise InputError(pointer + "/relations",
                             "expected a matrix of strings")
        for i, row in enumerate(rels):
            if len(row) != gens:
                raise InputError(f"{pointer}/relations/{i}",
                                 f"expected {gens} entries, one per generator")
        # stored relation-major; the library wants generator-major rows
        rows = [[rel[i] for rel in rels] for i in range(gens)]
        try:
            return from_presentation(alg, gens, rows, label=name)
        except (ModuleError, AlgebraError, ValueError) as exc:
            raise InputError(pointer + "/relations", str(exc))
    if kind == "actions":
        return module_from_dict(alg, data, pointer, label=name)
    raise InputError(pointer + "/kind",
                     f"expected one of {list(MODULE_KINDS)}")


def _certificate_from_spec(alg: Algebra, name: str, data, pointer: str):
    try:
        return sequence_from_dict(data, algebra=alg)
    except InputError as exc:
        raise InputError(pointer + exc.pointer, exc.message)


def workspace_from_dict(data) -> Workspace:
    if not isinstance(data, dict):
        raise InputError("", "expected an object")
    if data.get("version") != WORKSPACE_TAG:
        raise InputError("/version", f"expected {WORKSPACE_TAG!r}")
    alg = _algebra_from_dict(data.get("algebra"), "/algebra")
    for key in ("modules", "certificates"):
        if not isinstance(data.get(key, {}), dict):
            raise InputError(f"/{key}", "expected an object")
    return Workspace(alg, data.get("modules", {}),
                     data.get("certificates", {}))


def load_workspace(path) -> Workspace:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("", f"cannot read workspace: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError("", f"not valid JSON: {exc}")
    except RecursionError:
        raise InputError("", "not valid JSON: nested too deeply")
    return workspace_from_dict(data)
