"""Reading and writing ideals and constraint systems.

Ideal text format: a mandatory header line `vars: <r>`, then one generator
per line written multiplicatively, e.g. `x1^3 x2 x4^2`.  A bare `1` is the
unit generator.  Blank lines and `#` comments are ignored.  A file with a
header and no generators is the zero ideal.  The JSON form is
`{"r": 3, "generators": [[5,0,0],[4,1,0]]}`.  Both parsers normalize the
generator list to canonical minimal form.

Constraint system text format: header `vars: <e>`, an optional
`labels: <name> ...` line, then one row `c1 c2 ... ce >= b` per constraint.
JSON form: `{"e": 2, "rows": [[1,0]], "rhs": [0], "labels": ["z","y1"]}`.
"""

from __future__ import annotations

import json
import re
import sys
from json.scanner import NUMBER_RE
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError, is_int
from .monomials import Monomial, MonomialIdeal, minimize

if TYPE_CHECKING:
    from .polyhedra import ConstraintSystem

# digits are ASCII only: \d and int() would read other scripts' digits too
_VAR_TOKEN = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")
# what int() reads as a decimal integer of ASCII digits
_INT_TOKEN = re.compile(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*")
# a JSON string, escapes included, so that scans of JSON text skip its contents
_JSON_STRING = r'"(?:[^"\\]|\\.)*"'


def monomial_str(m: Monomial) -> str:
    """Multiplicative rendering, `1` for the unit monomial."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return " ".join(parts) if parts else "1"


def prime_str(prime: tuple[int, ...]) -> str:
    """A variable prime as `{x1,x3}` (1-based indices)."""
    return "{" + ",".join(f"x{i}" for i in prime) + "}"


def _excerpt(text: str, width: int = 60) -> str:
    """text cut to width characters, for echoing input back in an error."""
    return text if len(text) <= width else text[:width] + "..."


def _parse_int(token: str, source: str, lineno: int | None) -> int:
    """int(token) for an ASCII token, with a ParseError for a decimal past
    Python's int-from-str limit.

    Any other ValueError, also for a token with other than ASCII characters
    (int() reads the digits of every script), propagates for the caller to
    word.
    """
    if not token.isascii():
        raise ValueError(f"not an ASCII integer: {_excerpt(token)!r}")
    try:
        return int(token)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        digits = sum(c.isdigit() for c in token)
        if not limit or digits <= limit or not _INT_TOKEN.fullmatch(token):
            raise
        raise ParseError(
            f"integer of {digits} digits exceeds the {limit}-digit limit",
            source=source,
            line=lineno,
        ) from None


def _deepest_nesting(text: str) -> tuple[int, int]:
    """Greatest array/object nesting depth of JSON text, and the line of the
    first bracket that reaches it; brackets inside strings do not count."""
    depth = deepest = 0
    at = 0
    for m in re.finditer(_JSON_STRING + "|[][{}]", text):
        c = m.group()[0]
        if c in "[{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, m.start()
        elif c in "]}":
            depth -= 1
    return deepest, text.count("\n", 0, at) + 1


def _load_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", source=source) from exc
    except RecursionError:
        depth, line = _deepest_nesting(text)
        raise ParseError(
            f"invalid JSON: arrays and objects nested {depth} deep exceed the recursion limit",
            source=source,
            line=line,
        ) from None
    except ValueError:
        # json raises a plain ValueError for an integer past the int-from-str
        # limit: name the line of the first such number outside strings
        limit = sys.get_int_max_str_digits()
        for m in re.finditer(f"{_JSON_STRING}|{NUMBER_RE.pattern}", text):
            integer, frac, exp = m.groups()
            if integer and not (frac or exp) and len(integer.lstrip("-")) > limit:
                _parse_int(integer, source, text.count("\n", 0, m.start()) + 1)
        raise


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_header(text: str, source: str) -> tuple[int, list[tuple[int, str]]]:
    """The count of the `vars: <count>` header that text opens with, and
    the numbered content lines after it."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty input, expected `vars: <count>` header", source=source)
    lineno, header = lines[0]
    m = re.match(r"^vars:\s*([0-9]+)$", header)
    if not m:
        raise ParseError("expected header `vars: <count>`", source=source, line=lineno)
    n = _parse_int(m.group(1), source, lineno)
    if n < 1:
        raise ParseError("variable count must be >= 1", source=source, line=lineno)
    return n, lines[1:]


def parse_monomial(line: str, r: int, source: str = "<string>", lineno: int = 0) -> Monomial:
    if line.strip() == "1":
        return (0,) * r
    exps = [0] * r
    for tok in line.split():
        m = _VAR_TOKEN.match(tok)
        if not m:
            raise ParseError(
                f"bad monomial token {_excerpt(tok)!r}", source=source, line=lineno
            )
        k = _parse_int(m.group(1), source, lineno)
        if not 1 <= k <= r:
            raise ParseError(
                f"variable x{k} out of range 1..{r}", source=source, line=lineno
            )
        exps[k - 1] += _parse_int(m.group(2), source, lineno) if m.group(2) else 1
    return tuple(exps)


def parse_ideal_text(text: str, source: str = "<string>") -> MonomialIdeal:
    r, body = _parse_header(text, source)
    gens = [parse_monomial(line, r, source, ln) for ln, line in body]
    return minimize(gens, r)


def ideal_to_text(I: MonomialIdeal) -> str:
    out = [f"vars: {I.r}"]
    out.extend(monomial_str(g) for g in I.generators)
    return "\n".join(out) + "\n"


def parse_ideal_json(text: str, source: str = "<string>") -> MonomialIdeal:
    obj = _load_json(text, source)
    if not isinstance(obj, dict) or "r" not in obj or "generators" not in obj:
        raise ParseError("expected object with keys `r` and `generators`", source=source)
    r = obj["r"]
    gens = obj["generators"]
    if not is_int(r) or r < 1:
        raise ParseError(f"`r` must be a positive integer, got {r!r}", source=source)
    if not isinstance(gens, list):
        raise ParseError("`generators` must be a list of exponent lists", source=source)
    vecs = []
    for g in gens:
        if (
            not isinstance(g, list)
            or len(g) != r
            or not all(is_int(e) and e >= 0 for e in g)
        ):
            raise ParseError(
                f"generator {g!r} is not a list of {r} nonnegative integers",
                source=source,
            )
        vecs.append(tuple(g))
    return minimize(vecs, r)


def ideal_to_json(I: MonomialIdeal) -> str:
    return json.dumps({"r": I.r, "generators": [list(g) for g in I.generators]})


def _load(path: str | Path, parse_json, parse_text):
    """Parse a UTF-8 file, with or without a byte order mark, as JSON if
    its name ends in `.json`, else as text."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", source=str(path)) from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason}", source=str(path), line=line) from exc
    return (parse_json if path.suffix == ".json" else parse_text)(text, source=str(path))


def load_ideal(path: str | Path) -> MonomialIdeal:
    return _load(path, parse_ideal_json, parse_ideal_text)


def parse_system_text(text: str, source: str = "<string>") -> "ConstraintSystem":
    from .polyhedra import ConstraintSystem

    e, body = _parse_header(text, source)
    labels: tuple[str, ...] | None = None
    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []
    if body and body[0][1].startswith("labels:"):
        ln, line = body[0]
        names = line[len("labels:"):].split()
        if len(names) != e:
            raise ParseError(
                f"expected {e} labels, got {len(names)}", source=source, line=ln
            )
        labels = tuple(names)
        body = body[1:]
    for ln, line in body:
        toks = line.split()
        if len(toks) != e + 2 or toks[e] != ">=":
            raise ParseError(
                f"expected row `c1 ... c{e} >= b`", source=source, line=ln
            )
        try:
            coeffs = tuple(_parse_int(t, source, ln) for t in toks[:e])
            b = _parse_int(toks[e + 1], source, ln)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(
                f"non-integer entry in row {_excerpt(line)!r}", source=source, line=ln
            )
        rows.append(coeffs)
        rhs.append(b)
    return ConstraintSystem(e, tuple(rows), tuple(rhs), labels)


def system_to_text(sys: "ConstraintSystem") -> str:
    out = [f"vars: {sys.e}"]
    if sys.labels:
        out.append("labels: " + " ".join(sys.labels))
    for row, b in zip(sys.rows, sys.rhs):
        out.append(" ".join(str(c) for c in row) + f" >= {b}")
    return "\n".join(out) + "\n"


def parse_system_json(text: str, source: str = "<string>") -> "ConstraintSystem":
    from .polyhedra import ConstraintSystem

    obj = _load_json(text, source)
    if not isinstance(obj, dict) or "e" not in obj or "rows" not in obj or "rhs" not in obj:
        raise ParseError("expected object with keys `e`, `rows`, `rhs`", source=source)
    e = obj["e"]
    if not is_int(e) or e < 1:
        raise ParseError(f"`e` must be a positive integer, got {e!r}", source=source)
    rows = obj["rows"]
    rhs = obj["rhs"]
    if not isinstance(rows, list) or not isinstance(rhs, list) or len(rows) != len(rhs):
        raise ParseError("`rows` and `rhs` must be lists of equal length", source=source)
    parsed_rows = []
    for row in rows:
        if not isinstance(row, list) or len(row) != e or not all(map(is_int, row)):
            raise ParseError(f"row {row!r} is not a list of {e} integers", source=source)
        parsed_rows.append(tuple(row))
    if not all(map(is_int, rhs)):
        raise ParseError("`rhs` entries must be integers", source=source)
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != e or not all(
            isinstance(s, str) for s in labels
        ):
            raise ParseError(f"`labels` must be a list of {e} names", source=source)
        labels = tuple(labels)
    return ConstraintSystem(e, tuple(parsed_rows), tuple(rhs), labels)


def system_payload(sys: "ConstraintSystem") -> dict:
    """The JSON form of a constraint system as a dict of lists."""
    obj = {
        "e": sys.e,
        "rows": [list(row) for row in sys.rows],
        "rhs": list(sys.rhs),
    }
    if sys.labels:
        obj["labels"] = list(sys.labels)
    return obj


def system_to_json(sys: "ConstraintSystem") -> str:
    return json.dumps(system_payload(sys))


def load_system(path: str | Path) -> "ConstraintSystem":
    return _load(path, parse_system_json, parse_system_text)
