"""Human-writable matrix files.

Three format tags: dense-hermitian (entry rows), tridiagonal (two number
sequences) and generator (name plus parameters, so the large case-study
fixtures need no data files).  Parsing returns the matrix itself, a
DenseHermitian or SymTridiagonal; a generator file is realised while it is
parsed.  Numbers are serialized with repr, which round-trips every finite
float bit-exactly.
"""

from __future__ import annotations

import numpy as np

from . import generators
from .types import DenseHermitian, SymTridiagonal

__all__ = ["parse_matrix", "load_matrix", "serialize_matrix",
           "MatrixFormatError", "GENERATORS"]


class MatrixFormatError(ValueError):
    """Malformed matrix file."""


def _gen_wilkinson_split_a(n: int) -> SymTridiagonal:
    return generators.wilkinson_split(n)[0]


def _gen_wilkinson_split_e(n: int) -> SymTridiagonal:
    return generators.wilkinson_split(n)[1]


def _gen_aed_example_1000() -> SymTridiagonal:
    # diagonal reads (100, 999, 998, ..., 1) with unit couplings; the
    # leading 100 follows the printed fixture literally
    return generators.aed_example(1000)


GENERATORS = {
    "wilkinson_plus": (generators.wilkinson_plus, ("n",)),
    "wilkinson_split_a": (_gen_wilkinson_split_a, ("n",)),
    "wilkinson_split_e": (_gen_wilkinson_split_e, ("n",)),
    "aed_example_1000": (_gen_aed_example_1000, ()),
}


def _content_lines(text: str) -> list[tuple[str, str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        out.append((key, rest.strip()))
    return out


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError as exc:
        raise MatrixFormatError(f"malformed number: {exc}") from exc


def parse_matrix(text: str) -> DenseHermitian | SymTridiagonal:
    lines = _content_lines(text)
    if not lines or lines[0][0] != "format":
        raise MatrixFormatError("first line must be 'format <tag>'")
    tag = lines[0][1]
    body = lines[1:]
    if tag == "tridiagonal":
        fields = dict(body)
        if set(fields) - {"diag", "offdiag"} or "diag" not in fields:
            raise MatrixFormatError("tridiagonal needs 'diag' and 'offdiag' lines")
        diag = [_number(v) for v in fields["diag"].split()]
        off = [_number(v) for v in fields.get("offdiag", "").split()]
        try:
            return SymTridiagonal(np.array(diag), np.array(off))
        except ValueError as exc:
            raise MatrixFormatError(str(exc)) from exc
    if tag == "dense-hermitian":
        rows = [[_number(v, complex) for v in rest.split()] for key, rest in body
                if key == "row"]
        if not rows or any(key != "row" for key, _ in body):
            raise MatrixFormatError("dense-hermitian expects only 'row' lines")
        if any(len(r) != len(rows) for r in rows):
            raise MatrixFormatError("dense-hermitian rows must form a square matrix")
        try:
            return DenseHermitian.from_array(np.array(rows))
        except ValueError as exc:
            raise MatrixFormatError(str(exc)) from exc
    if tag == "generator":
        fields = dict(body)
        name = fields.pop("name", None)
        if name not in GENERATORS:
            raise MatrixFormatError(
                f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
        fn, param_names = GENERATORS[name]
        params = {}
        for key, value in fields.items():
            if key not in param_names:
                raise MatrixFormatError(f"generator {name} takes no parameter {key!r}")
            params[key] = _number(value, int)
        missing = set(param_names) - set(params)
        if missing:
            raise MatrixFormatError(f"generator {name} missing parameters {sorted(missing)}")
        try:
            return fn(**params)
        except ValueError as exc:
            raise MatrixFormatError(f"generator {name}: {exc}") from exc
    raise MatrixFormatError(f"unknown format tag {tag!r}")


def load_matrix(path: str) -> DenseHermitian | SymTridiagonal:
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def serialize_matrix(m) -> str:
    """Render a matrix to file text; bit-exact round trip."""
    if isinstance(m, SymTridiagonal):
        diag = " ".join(repr(float(v)) for v in m.diag)
        off = " ".join(repr(float(v)) for v in m.offdiag)
        return f"format tridiagonal\ndiag {diag}\noffdiag {off}\n"
    if isinstance(m, DenseHermitian):
        lines = ["format dense-hermitian"]
        for row in m.entries:
            lines.append("row " + " ".join(repr(complex(v)) for v in row))
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(m).__name__}")
