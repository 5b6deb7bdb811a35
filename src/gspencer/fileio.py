"""Text formats for algebras and cochains.

Algebra files::

    algebra <name>
    grading <graded|quasi_graded> height <k> [truncated <d>]
    basis
    <name> degree <d>
    ...
    brackets
    [<a>,<b>] = <rat>*<name> + <rat>*<name> ...
    ...
    end

Rationals are written ``p/q`` or as plain integers (signs allowed).
Unlisted brackets are zero; listing a pair twice or in both orientations is
an error.  The optional ``truncated`` marker records algebras cut off from an
infinite prolongation, so files round-trip exactly.

Cochain files::

    cochain p <p> q <q> level <r> W <n>
    (<i1>,...,<iq>) = <rat>*<name> ...

Indices are 1-based, strictly increasing, over a W spanned by the first n
coordinate vectors; every named basis element must have degree p-1.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GradedLieAlgebra, check_names_and_truncation, grading_report, jacobi_report
from .errors import InputError, ParseError, ValidationError
from .spencer import Cochain, standard_complex


def _parse_rational(tok: str, line: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", line) from None


def _parse_combination(rhs: str, line: int) -> list[tuple[Fraction, str]]:
    terms = []
    for chunk in rhs.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term in combination", line)
        if "*" not in chunk:
            raise ParseError(f"term {chunk!r} is not of the form <rat>*<name>", line)
        coeff_s, name = chunk.split("*", 1)
        coeff = _parse_rational(coeff_s.strip(), line)
        name = name.strip()
        if not name:
            raise ParseError("missing basis name in term", line)
        terms.append((coeff, name))
    return terms


def parse_algebra(text: str, validate: bool = True) -> GradedLieAlgebra:
    """Parse and (by default) validate an algebra file.

    Structural problems raise ParseError with a line number; Jacobi or
    grading failures raise ValidationError carrying the diagnostics.
    """
    lines = text.splitlines()
    pos = 0

    def next_line() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            pos += 1
            stripped = lines[pos - 1].strip()
            if stripped and not stripped.startswith("#"):
                return pos, stripped
        raise ParseError("unexpected end of file", len(lines) or 1)

    ln, line = next_line()
    if not line.startswith("algebra "):
        raise ParseError("expected 'algebra <name>'", ln)
    name = line[len("algebra "):].strip()

    ln, line = next_line()
    toks = line.split()
    if len(toks) not in (4, 6) or toks[0] != "grading" or toks[2] != "height":
        raise ParseError("expected 'grading <kind> height <k>'", ln)
    kind = toks[1]
    if kind not in ("graded", "quasi_graded"):
        raise ParseError(f"unknown grading kind {kind!r}", ln)
    try:
        height = int(toks[3])
    except ValueError:
        raise ParseError("height must be an integer", ln) from None
    truncated_at = None
    if len(toks) == 6:
        if toks[4] != "truncated":
            raise ParseError("expected 'truncated <d>'", ln)
        try:
            truncated_at = int(toks[5])
        except ValueError:
            raise ParseError("truncation degree must be an integer", ln) from None

    def check(names: list[str], truncated_at: int | None, ln: int) -> None:
        try:
            check_names_and_truncation(names, height, truncated_at)
        except InputError as exc:
            raise ParseError(str(exc), ln) from None

    check([], truncated_at, ln)

    ln, line = next_line()
    if line != "basis":
        raise ParseError("expected 'basis'", ln)
    names: list[str] = []
    degrees: list[int] = []
    while True:
        ln, line = next_line()
        if line == "brackets":
            break
        toks = line.split()
        if len(toks) != 3 or toks[1] != "degree":
            raise ParseError("expected '<name> degree <d>'", ln)
        check(toks[:1], None, ln)
        if toks[0] in names:
            raise ParseError(f"duplicate basis name {toks[0]!r}", ln)
        try:
            d = int(toks[2])
        except ValueError:
            raise ParseError("degree must be an integer", ln) from None
        if d < -1 or d > height - 1:
            raise ParseError(f"degree {d} out of range -1..{height - 1}", ln)
        names.append(toks[0])
        degrees.append(d)
    if -1 not in degrees:
        raise ParseError("degree -1 part must have dimension at least 1", ln)

    index = {n: i for i, n in enumerate(names)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen: set[tuple[int, int]] = set()
    while True:
        ln, line = next_line()
        if line == "end":
            break
        if not (line.startswith("[") and "=" in line):
            raise ParseError("expected '[<a>,<b>] = ...' or 'end'", ln)
        head, rhs = line.split("=", 1)
        head = head.strip()
        if not (head.startswith("[") and head.endswith("]")):
            raise ParseError("malformed bracket pair", ln)
        ab = head[1:-1].split(",")
        if len(ab) != 2:
            raise ParseError("bracket pair needs exactly two names", ln)
        a_name, b_name = ab[0].strip(), ab[1].strip()
        for nm in (a_name, b_name):
            if nm not in index:
                raise ParseError(f"unknown basis element {nm!r}", ln)
        i, j = index[a_name], index[b_name]
        if i == j:
            raise ParseError("bracket of an element with itself is implicitly zero", ln)
        if (i, j) in seen or (j, i) in seen:
            raise ParseError(f"bracket [{a_name},{b_name}] given twice (or in both "
                             f"orientations)", ln)
        seen.add((i, j))
        entry: dict[int, Fraction] = {}
        for coeff, nm in _parse_combination(rhs.strip(), ln):
            if nm not in index:
                raise ParseError(f"unknown basis element {nm!r}", ln)
            entry[index[nm]] = entry.get(index[nm], Fraction(0)) + coeff
        if i < j:
            table[(i, j)] = entry
        else:
            table[(j, i)] = {t: -c for t, c in entry.items()}

    try:
        alg = GradedLieAlgebra(name, names, degrees, height, table, kind, truncated_at)
    except InputError as exc:
        raise ParseError(str(exc), ln) from None
    if validate:
        diags = []
        for v in jacobi_report(alg):
            diags.append(f"Jacobi fails on ({', '.join(v.names)})")
        for g in grading_report(alg):
            diags.append(f"grading violated by [{g.names[0]},{g.names[1]}] "
                         f"(expected degree {g.expected_degree})")
        if diags:
            raise ValidationError("algebra fails validation", diags)
    return alg


def _format_combination(alg: GradedLieAlgebra, entry: dict[int, Fraction]) -> str:
    parts = [f"{c}*{alg.names[t]}" for t, c in sorted(entry.items())]
    return " + ".join(parts)


def serialize_algebra(alg: GradedLieAlgebra) -> str:
    out = [f"algebra {alg.name}"]
    grading = f"grading {alg.grading_kind} height {alg.height}"
    if alg.truncated_at is not None:
        grading += f" truncated {alg.truncated_at}"
    out.append(grading)
    out.append("basis")
    for nm, d in zip(alg.names, alg.degrees):
        out.append(f"{nm} degree {d}")
    out.append("brackets")
    for (i, j), entry in sorted(alg.constants().items()):
        out.append(f"[{alg.names[i]},{alg.names[j]}] = {_format_combination(alg, entry)}")
    out.append("end")
    return "\n".join(out) + "\n"


def parse_cochain(text: str, alg: GradedLieAlgebra) -> Cochain:
    """Parse a cochain file against an algebra; W is the first n coordinates."""
    lines = text.splitlines()
    header = None
    header_ln = 0
    for ln0, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            header, header_ln = s, ln0
            break
    if header is None:
        raise ParseError("empty cochain file", 1)
    toks = header.split()
    if len(toks) != 9 or toks[0] != "cochain" or toks[1] != "p" or toks[3] != "q" \
            or toks[5] != "level" or toks[7] != "W":
        raise ParseError("expected 'cochain p <p> q <q> level <r> W <n>'", header_ln)
    try:
        p, q, level, n_w = int(toks[2]), int(toks[4]), int(toks[6]), int(toks[8])
    except ValueError:
        raise ParseError("header fields must be integers", header_ln) from None
    if not 0 <= p <= alg.height:
        raise ParseError(f"p must lie in 0..{alg.height} for this algebra", header_ln)
    if n_w < 1 or n_w > alg.component_dim(-1):
        raise ParseError("W dimension out of range for this algebra", header_ln)
    cplx = standard_complex(alg, n_w)
    comp_idx = alg.component_indices(p - 1)
    comp_pos = {i: pos for pos, i in enumerate(comp_idx)}
    values: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}
    for ln0, raw in enumerate(lines, start=1):
        if ln0 <= header_ln:
            continue
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s or not s.startswith("("):
            raise ParseError("expected '(<i1>,...,<iq>) = ...'", ln0)
        head, rhs = s.split("=", 1)
        head = head.strip()
        if not head.endswith(")"):
            raise ParseError("malformed index tuple", ln0)
        inner = head[1:-1].strip()
        idxs: tuple[int, ...]
        if inner:
            try:
                idxs = tuple(int(t.strip()) for t in inner.split(","))
            except ValueError:
                raise ParseError("indices must be integers", ln0) from None
        else:
            idxs = ()
        if len(idxs) != q:
            raise ParseError(f"expected {q} indices", ln0)
        if any(not 1 <= t <= n_w for t in idxs) or \
                any(idxs[i] >= idxs[i + 1] for i in range(len(idxs) - 1)):
            raise ParseError("indices must be strictly increasing in 1..n", ln0)
        key = tuple(t - 1 for t in idxs)
        if key in values:
            raise ParseError("tuple listed twice", ln0)
        vec = []
        for coeff, nm in _parse_combination(rhs.strip(), ln0):
            if nm not in alg.names:
                raise ParseError(f"unknown basis element {nm!r}", ln0)
            bi = alg.index_of(nm)
            if alg.degrees[bi] != p - 1:
                raise ParseError(f"basis element {nm!r} has degree {alg.degrees[bi]}, "
                                 f"need {p - 1}", ln0)
            vec.append((comp_pos[bi], coeff))
        # the Cochain constructor sums repeated names and drops zeros
        values[key] = vec
    return Cochain(cplx, p, q, level, values)


def serialize_cochain(x: Cochain) -> str:
    alg = x.frame.algebra
    comp_idx = alg.component_indices(x.p - 1)
    out = [f"cochain p {x.p} q {x.q} level {x.level} W {x.frame.n_w}"]
    for tup, row in sorted(x.values.items()):
        entry = {comp_idx[k]: c for k, c in row}
        idx_s = ",".join(str(t + 1) for t in tup)
        out.append(f"({idx_s}) = {_format_combination(alg, entry)}")
    return "\n".join(out) + "\n"
