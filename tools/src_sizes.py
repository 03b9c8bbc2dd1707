"""Size of each lifter module: lines, AST nodes and compile() time.

    python3 tools/src_sizes.py [CHECKOUT [OTHER_CHECKOUT]] [--rounds N]

For each src/lifter/*.py of a checkout (by default the one holding this
file) it prints the module's lines, its AST nodes and the median over N
rounds of the best of 20 compile() calls, in ms.  Given two checkouts, it
prints them side by side (a, then b), alternates which one each round
times first, and counts the rounds in which b compiled faster ("wins").
"""

import argparse
import ast
import statistics
import time
from pathlib import Path


def best_compile_ms(text: str, name: str, calls: int = 20) -> float:
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        compile(text, name, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    ns = parser.parse_args()
    checkouts = ns.checkouts or [Path(__file__).resolve().parent.parent]
    if len(checkouts) > 2:
        parser.error("give one checkout or two")
    sides = [{p.name: p.read_text(encoding="utf-8") for p in sorted(c.glob("src/lifter/*.py"))}
             for c in checkouts]
    times = [{name: [] for name in side} for side in sides]
    for r in range(ns.rounds):
        for k in range(len(sides))[:: 1 if r % 2 == 0 else -1]:
            for name, text in sides[k].items():
                times[k][name].append(best_compile_ms(text, name))
    rows = [{name: (text.count("\n"), sum(1 for _ in ast.walk(ast.parse(text))))
             for name, text in side.items()} for side in sides]
    for row, t in zip(rows, times):  # the total time is summed round by round
        row["total"], t["total"] = tuple(map(sum, zip(*row.values()))), list(map(sum, zip(*t.values())))
    suffixes = [""] if len(sides) == 1 else [" a", " b"]
    heads = [h + s for h in ("lines", "nodes", "ms") for s in suffixes]
    print(f"{'module':<14}" + "".join(f"{h:>10}" for h in heads) + ("  wins" if len(sides) == 2 else ""))
    for name in sorted(set().union(*sides)) + ["total"]:
        cells = [row.get(name, ("-", "-")) for row in rows]
        ms = [f"{statistics.median(t[name]):.2f}" if name in t else "-" for t in times]
        line = f"{name:<14}" + "".join(f"{v:>10}" for v in [*(c[0] for c in cells), *(c[1] for c in cells), *ms])
        if len(sides) == 2 and all(name in t for t in times):
            line += f"  {sum(b < a for a, b in zip(times[0][name], times[1][name]))}/{ns.rounds}"
        print(line)


if __name__ == "__main__":
    main()
