"""Output checks on the per-round CSV a seeded run writes.

A round fails when its row is missing or malformed, when its assortment is
not 1..K distinct in-range item indices, when its outcome lies outside
0..|A|, or when ``cum_regret`` drifts from the running sum of
``inst_regret`` by more than 1e-9.
"""
from __future__ import annotations

CUM_TOL = 1e-9


def failed_rounds(text: str, header: str, T: int, N: int, K: int) -> set[int]:
    """Rounds 1..T whose CSV row fails validation; all of them on a bad header."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        return set(range(1, T + 1))
    cols = header.split(",")
    i_t, i_a, i_o = cols.index("t"), cols.index("assortment"), cols.index("outcome")
    i_inst, i_cum = cols.index("inst_regret"), cols.index("cum_regret")
    rows = lines[1:]
    bad = set(range(len(rows) + 1, T + 1))  # missing rows
    if len(rows) > T:
        bad.update(range(T + 1, len(rows) + 1))
    running = 0.0
    for t, line in enumerate(rows, start=1):
        fields = line.split(",")
        try:
            if len(fields) != len(cols) or int(fields[i_t]) != t:
                raise ValueError("row shape")
            items = [int(i) for i in fields[i_a].split("|")]
            outcome = int(fields[i_o])
            running += float(fields[i_inst])
            cum = float(fields[i_cum])
        except ValueError:
            bad.add(t)
            continue
        if not (
            1 <= len(items) <= K
            and len(set(items)) == len(items)
            and all(0 <= i < N for i in items)
            and 0 <= outcome <= len(items)
            and abs(cum - running) <= CUM_TOL
        ):
            bad.add(t)
    return bad


def coverage(text: str, header: str) -> float:
    """Share of rounds whose ``covered`` flag is 1."""
    col = header.split(",").index("covered")
    rows = [line.split(",") for line in text.split("\n")[1:] if line]
    return sum(len(r) > col and r[col] == "1" for r in rows) / len(rows) if rows else 0.0
