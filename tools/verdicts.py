"""Verdicts, witnesses and work counts of the heuristic library.

    python3 tools/verdicts.py [CHECKOUT [OTHER_CHECKOUT]]

For each checkout (by default the one holding this file) one child process
imports that checkout's src/ and perfbench/families.py and runs the 9
shipped heuristics on every candidate of every ladder rung and on every
(case, args) pair of the bundled corpus.  It prints the pair count, a
sha256 of the verdicts and one of the witness chains as `lifter assert
--witness` renders them, and per heuristic the atomic calls and domain
items, counted by wrapping each evaluator's atomic and domain_values.
Given two checkouts, it says whether they match.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path


def counted(method, count: list, k: int, size):
    """method, adding size(result) to count[k] on each call."""
    def wrapped(*args):
        result = method(*args)
        count[k] += size(result)
        return result
    return wrapped


def child(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import families
    from lifter import Evaluator, bundled_corpus_dir, load_case_file, load_stdlib, parse_case_file
    from lifter.cli import _format_value

    cases = [(f"{f}/{k}", parse_case_file(families.case_text(f, k)[0]))
             for f in families.FAMILIES for k in families.LADDERS[f]]
    cases += [(p.stem, load_case_file(p)) for p in sorted(bundled_corpus_dir().glob("*.case"))]
    heuristics = load_stdlib().selected(include_h7=True)
    verdicts, witnesses = hashlib.sha256(), hashlib.sha256()
    totals = {name: [0, 0] for name, _ in heuristics}
    pairs = 0
    for label, case in cases:
        for args_id, args in case.arg_sets.items():
            pairs += 1
            for name, assertion in heuristics:
                ev, count = Evaluator(case.goal, case.context, args), totals[name]
                ev.atomic = counted(ev.atomic, count, 0, lambda value: 1)
                ev.domain_values = counted(ev.domain_values, count, 1, len)
                chain = ev.witnesses(assertion)
                key = f"{label} {args_id} {name}"
                verdicts.update(f"{key} {chain is not None}\n".encode())
                rendered = [f"{var} = {_format_value(value)}" for var, value in chain or []]
                witnesses.update(f"{key} {rendered}\n".encode())
    return {"pairs": pairs, "verdicts": verdicts.hexdigest(),
            "witnesses": witnesses.hexdigest(), "totals": totals}


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(Path(sys.argv[2]))))
        return
    checkouts = [Path(a).resolve() for a in sys.argv[1:]] or [Path(__file__).resolve().parent.parent]
    if len(checkouts) > 2:
        sys.exit("give one checkout or two")
    results = []
    for root in checkouts:
        r = json.loads(subprocess.run([sys.executable, __file__, "--child", str(root)],
                                      check=True, capture_output=True, text=True).stdout)
        results.append(r)
        print(f"{root}: {r['pairs']} pairs, verdicts {r['verdicts']}, witnesses {r['witnesses']}")
        for name, (calls, items) in r["totals"].items():
            print(f"  {name:<32} atomic calls {calls:>8,}  domain items {items:>9,}")
    if len(results) == 2:
        print("match" if results[0] == results[1] else "DIFFER")


if __name__ == "__main__":
    main()
