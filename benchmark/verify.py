"""Checks of the program's JSON reports against what the inputs force.

Every check works from the parsed report, never from the exit code: a
crash and a false verdict both exit 1, so the code alone proves nothing.
Each function returns None when the report is right and a short reason
when it is not.  Witnesses are re-derived from their definition with the
benchmark's own GF(2) rank, not with the program's code.
"""

from __future__ import annotations

from inputs import Case, bits_str, rank_of


def _bits(text: str) -> int:
    if set(text) - {"0", "1"}:
        raise ValueError(f"bad bit string {text!r}")
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def theta_problem(witness, cols: dict[str, int], dim: int) -> str | None:
    """Whether `witness` is an incomplete theta of the matroid `cols`.

    Three nonempty disjoint independent arcs, every union of two arcs a
    circuit, the union of all three of corank 2, one common column sum,
    and that sum carried by no element.
    """
    if not isinstance(witness, dict):
        return f"witness is not a theta: {witness!r}"
    arcs = witness.get("arcs")
    if not isinstance(arcs, list) or len(arcs) != 3:
        return "theta witness needs three arcs"
    seen: set[str] = set()
    arc_cols = []
    for arc in arcs:
        if not arc:
            return "empty arc"
        for lab in arc:
            if lab not in cols:
                return f"arc label {lab!r} is not an element"
            if lab in seen:
                return f"arcs share {lab!r}"
            seen.add(lab)
        arc_cols.append([cols[lab] for lab in arc])
    sums = []
    for ac in arc_cols:
        if rank_of(ac) != len(ac):
            return "dependent arc"
        total = 0
        for c in ac:
            total ^= c
        sums.append(total)
    if len(set(sums)) != 1:
        return "arc column sums differ"
    for i in range(3):
        for j in range(i + 1, 3):
            pair = arc_cols[i] + arc_cols[j]
            if rank_of(pair) != len(pair) - 1:
                return "two arcs do not form a circuit"
    every = arc_cols[0] + arc_cols[1] + arc_cols[2]
    if rank_of(every) != len(every) - 2:
        return "arcs do not have corank 2"
    completing = witness.get("completing_vector")
    if not isinstance(completing, str) or len(completing) != dim:
        return "bad completing vector"
    if _bits(completing) != sums[0]:
        return "completing vector is not the arc sum"
    if sums[0] in set(cols.values()):
        return "theta is complete: its sum is an element"
    return None


def _input_problem(report: dict, command: str, case: Case) -> str | None:
    if report.get("command") != command:
        return f"command {report.get('command')!r}, expected {command!r}"
    if report.get("error"):
        return f"error: {report['error']}"
    info = report.get("input") or {}
    if info.get("size") != case.size or info.get("rank") != case.rank:
        return f"input read as size {info.get('size')} rank {info.get('rank')}"
    return None


def check_closed(report: dict, case: Case) -> str | None:
    """A `check` report that must say closed (glued graphs, dense blocks)."""
    problem = _input_problem(report, "check", case)
    if problem:
        return problem
    if report.get("verdict") is not True:
        return f"verdict {report.get('verdict')!r}, the input is theta-closed"
    if report.get("witness") is not None:
        return "closed verdict with a witness"
    return None


def check_any(report: dict, case: Case) -> str | None:
    """A `check` report either way; a negative one needs a valid witness."""
    problem = _input_problem(report, "check", case)
    if problem:
        return problem
    verdict = report.get("verdict")
    if verdict is True:
        return None if report.get("witness") is None else "closed verdict with a witness"
    if verdict is False:
        return theta_problem(report.get("witness"), case.columns, case.dim)
    return f"verdict {verdict!r} is not a boolean"


def decompose_agrees(report: dict, case: Case, closed: bool) -> str | None:
    """InClass exactly when `check` said closed; NotInClass carries a theta."""
    problem = _input_problem(report, "decompose", case)
    if problem:
        return problem
    verdict = report.get("verdict")
    if verdict not in ("InClass", "NotInClass"):
        return f"verdict {verdict!r}"
    if (verdict == "InClass") != closed:
        return f"{verdict} but check said closed={closed}"
    tree = report.get("tree") or {}
    if not tree.get("vertices"):
        return "no decomposition tree"
    if verdict == "InClass":
        recipe = report.get("recipe") or {}
        return None if recipe.get("term") else "InClass without a recipe"
    return theta_problem(report.get("witness"), case.columns, case.dim)


def closure_problem(report: dict, case: Case) -> tuple[str | None, list | None]:
    """Check a closure report; also return the final matroid's elements.

    The final matroid must contain the input unchanged, and it must be
    exactly the input plus the vectors the rounds added, each added
    because its round's witness is an incomplete theta of the matroid
    as it stood at the start of that round.
    """
    problem = _input_problem(report, "closure", case)
    if problem:
        return problem, None
    final = report.get("final") or {}
    trace = report.get("trace") or {}
    dim = case.dim
    try:
        elements = [(lab, _bits(bits)) for lab, bits in final.get("elements", [])]
    except (TypeError, ValueError) as exc:
        return f"bad final elements: {exc}", None
    have = dict(elements)
    cols = case.columns
    for lab, c in cols.items():
        if have.get(lab) != c:
            return f"input element {lab!r} missing from the final matroid", None
    current = dict(cols)
    for number, rnd in enumerate(trace.get("rounds", [])):
        added = rnd.get("added", [])
        witnesses = rnd.get("witnesses", [])
        if not added or len(added) != len(witnesses):
            return f"round {number}: {len(added)} vectors, {len(witnesses)} witnesses", None
        new = {}
        for vector, witness in zip(added, witnesses):
            bad = theta_problem(witness, current, dim)
            if bad:
                return f"round {number}: {bad}", None
            if witness["completing_vector"] != vector:
                return f"round {number}: added {vector}, witness completes by another", None
            new[_bits(vector)] = vector
        by_col = {c: lab for lab, c in have.items()}
        for v in new:
            if v not in by_col:
                return f"round {number}: added vector absent from the final matroid", None
            current[by_col[v]] = v
    if len(current) != len(elements) or trace.get("final_size") != len(elements):
        return "final matroid is not the input plus the added vectors", None
    return None, elements


def matroid_text(elements: list, dim: int) -> str:
    body = "".join(f"{lab} {bits_str(c, dim)}\n" for lab, c in elements)
    return f"dim {dim}\n{body}"
