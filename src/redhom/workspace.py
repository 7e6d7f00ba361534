"""Workspace files: one ring, named modules, named chain certificates.

A workspace is the JSON input every CLI command starts from.  Loading
checks the file, its version and its ring; each module and certificate is
checked when a command first reads it.  Every violation carries a JSON
pointer to the offending field, so the caller can say where a file went wrong.
"""

import json

from .linalg import Field, Matrix, QQ
from .algebra import Algebra, AlgebraError, build_algebra
from .modules import Module, ModuleError, free_module, from_presentation, \
    residue_field
from .reducing import CertificateFormatError, ReducingSequence, \
    sequence_from_dict

WORKSPACE_TAG = "redhom-workspace/1"

MODULE_KINDS = ("free", "simple", "cyclic", "presentation", "actions")


class WorkspaceError(ValueError):
    """A malformed workspace file, located by JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer or '/'}: {message}")


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
                raise WorkspaceError(pointer, f"no {section[:-1]} named "
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
            raise WorkspaceError(pointer + "/p",
                                 "expected a prime characteristic")
        try:
            return Field(p)
        except ValueError as exc:
            raise WorkspaceError(pointer + "/p", str(exc))
    raise WorkspaceError(pointer + "/field", "expected \"Fp\" or \"Q\"")


def _algebra_from_dict(data, pointer: str) -> Algebra:
    if not isinstance(data, dict):
        raise WorkspaceError(pointer, "expected an object")
    fld = _field_from_dict(data, pointer)
    vars = data.get("vars")
    if (not isinstance(vars, list)
            or not all(isinstance(v, str) and v for v in vars)):
        raise WorkspaceError(pointer + "/vars",
                             "expected a list of variable names")
    nilp = data.get("nilpotency")
    if type(nilp) is not int or nilp < 1:
        raise WorkspaceError(pointer + "/nilpotency",
                             "expected a positive integer")
    rels = data.get("relations", [])
    if not isinstance(rels, list) or not all(isinstance(r, str)
                                             for r in rels):
        raise WorkspaceError(pointer + "/relations",
                             "expected a list of polynomial strings")
    try:
        return build_algebra(fld, list(vars), list(rels), nilp)
    except (AlgebraError, ValueError) as exc:
        raise WorkspaceError(pointer, str(exc))


def _str_rows(data, pointer: str) -> list:
    if not isinstance(data, list) or not all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in data):
        raise WorkspaceError(pointer, "expected a matrix of strings")
    return data


def _module_from_spec(alg: Algebra, name: str, data, pointer: str) -> Module:
    if not isinstance(data, dict):
        raise WorkspaceError(pointer, "expected an object")
    kind = data.get("kind")
    if kind == "free":
        rank = data.get("rank")
        if type(rank) is not int or rank < 0:
            raise WorkspaceError(pointer + "/rank",
                                 "expected a nonnegative integer")
        return free_module(alg, rank, label=name)
    if kind == "simple":
        return residue_field(alg)
    if kind == "cyclic":
        rels = data.get("relations")
        if not isinstance(rels, list) or not all(isinstance(r, str)
                                                 for r in rels):
            raise WorkspaceError(pointer + "/relations",
                                 "expected a list of element strings")
        try:
            return from_presentation(alg, 1, [list(rels)], label=name)
        except (ModuleError, AlgebraError, ValueError) as exc:
            raise WorkspaceError(pointer + "/relations", str(exc))
    if kind == "presentation":
        gens = data.get("generators")
        if type(gens) is not int or gens < 0:
            raise WorkspaceError(pointer + "/generators",
                                 "expected a nonnegative integer")
        rels = _str_rows(data.get("relations", []),
                         pointer + "/relations")
        for i, row in enumerate(rels):
            if len(row) != gens:
                raise WorkspaceError(f"{pointer}/relations/{i}",
                                     f"expected {gens} entries, one per "
                                     "generator")
        # stored relation-major; the library wants generator-major rows
        rows = [[rel[i] for rel in rels] for i in range(gens)]
        try:
            return from_presentation(alg, gens, rows, label=name)
        except (ModuleError, AlgebraError, ValueError) as exc:
            raise WorkspaceError(pointer + "/relations", str(exc))
    if kind == "actions":
        dim = data.get("dim")
        if type(dim) is not int or dim < 0:
            raise WorkspaceError(pointer + "/dim",
                                 "expected a nonnegative integer")
        acts = data.get("actions")
        if not isinstance(acts, list) or len(acts) != alg.nvars:
            raise WorkspaceError(pointer + "/actions",
                                 f"expected {alg.nvars} matrices, one per "
                                 "variable")
        mats = []
        for v, rows in enumerate(acts):
            rows = _str_rows(rows, f"{pointer}/actions/{v}")
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise WorkspaceError(f"{pointer}/actions/{v}",
                                     f"expected a {dim}x{dim} matrix")
            try:
                mats.append(Matrix.from_str_rows(alg.field, rows))
            except (ValueError, TypeError) as exc:
                raise WorkspaceError(f"{pointer}/actions/{v}",
                                     f"bad entry: {exc}")
        try:
            mod = Module(alg, dim, mats, label=name)
        except ModuleError as exc:
            raise WorkspaceError(pointer + "/actions", str(exc))
        return mod
    raise WorkspaceError(pointer + "/kind",
                         f"expected one of {list(MODULE_KINDS)}")


def _certificate_from_spec(alg: Algebra, name: str, data, pointer: str):
    try:
        return sequence_from_dict(data, algebra=alg)
    except CertificateFormatError as exc:
        raise WorkspaceError(pointer + exc.pointer, exc.message)


def workspace_from_dict(data) -> Workspace:
    if not isinstance(data, dict):
        raise WorkspaceError("", "expected an object")
    if data.get("version") != WORKSPACE_TAG:
        raise WorkspaceError("/version", f"expected {WORKSPACE_TAG!r}")
    alg = _algebra_from_dict(data.get("algebra"), "/algebra")
    for key in ("modules", "certificates"):
        if not isinstance(data.get(key, {}), dict):
            raise WorkspaceError(f"/{key}", "expected an object")
    return Workspace(alg, data.get("modules", {}),
                     data.get("certificates", {}))


def load_workspace(path) -> Workspace:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise WorkspaceError("", f"cannot read workspace: {exc}")
    except json.JSONDecodeError as exc:
        raise WorkspaceError("", f"not valid JSON: {exc}")
    except RecursionError:
        raise WorkspaceError("", "not valid JSON: nested too deeply")
    return workspace_from_dict(data)
