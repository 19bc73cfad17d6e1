"""``python3 benchmarks/e2e/compare.py OLD.json NEW.json`` — compare two sets.

A *set* is what ``run.py`` (no ``--workload``) writes to ``out/set_<i>.json``:
every workload run on several seeds, plus one traced run per workload.  One
row per workload × end-to-end metric: both medians, the change as a share of
the old median (positive = worse), each set's run-to-run spread, and a
verdict against the metric's bound:

``REGRESSION``   new median worse than old by more than the bound
``unresolved``   a set's spread exceeds the bound, so the medians cannot say
                 — never reported as "unchanged" — unless every new run is
                 better than every old run (``improved``)
``improved``     better by more than both spreads
``within bound`` otherwise

Under each workload the per-layer metric whose median moved most is named.
Exit status is non-zero on any ``REGRESSION``.
"""

from __future__ import annotations

import json
import statistics
import sys

if __package__ in (None, ""):
    import _bootstrap  # noqa: F401  (script mode: put benchmarks/ on sys.path)

from e2e import estimator, metrics  # noqa: E402


def run_spread(values):
    """Run-to-run spread of one set's values: the driver's quartile spread
    from four runs up, the range over the median below that."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        return estimator.spread(values)
    return (max(values) - min(values)) / statistics.median(values)


def worsening(old, new, better):
    """Change of ``new`` against ``old`` as a share of ``old``, signed so
    that positive means worse."""
    change = (new - old) / old
    return change if better == "lower" else -change


def verdict(old, new, better, bound):
    """``(verdict, worsening of the medians, old spread, new spread)``."""
    m_old, m_new = statistics.median(old), statistics.median(new)
    worse = worsening(m_old, m_new, better)
    s_old, s_new = run_spread(old), run_spread(new)
    if better == "lower":
        all_better = max(new) < min(old)
    else:
        all_better = min(new) > max(old)
    if max(s_old, s_new) > bound:
        return ("improved" if all_better else "unresolved"), worse, s_old, s_new
    if worse > bound:
        return "REGRESSION", worse, s_old, s_new
    if -worse > max(s_old, s_new):
        return "improved", worse, s_old, s_new
    return "within bound", worse, s_old, s_new


def collect(data, trace):
    """``{workload: {metric: [value per run]}}`` of a set's runs."""
    out = {}
    for run in data["runs"]:
        if run["trace"] != trace:
            continue
        per = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def biggest_mover(old, new):
    """``(name, relative change)`` of the per-layer metric whose median
    moved most between two ``{metric: values}`` maps, or ``None``."""
    best = None
    for name, values in old.items():
        base = statistics.median(values)
        if name not in new or base == 0:
            continue
        change = (statistics.median(new[name]) - base) / abs(base)
        if best is None or abs(change) > abs(best[1]):
            best = (name, change)
    return best


def report(old, new, file):
    """Print the comparison of two sets; returns the exit status."""
    e_old, e_new = collect(old, 0), collect(new, 0)
    l_old, l_new = collect(old, 1), collect(new, 1)
    status = 0
    for workload in e_old:
        if workload not in e_new:
            continue
        print(f"\n{workload}", file=file)
        print(f"  {'metric':28s} {'old':>12s} {'new':>12s} {'worse by':>9s} "
              f"{'spread':>13s} {'bound':>6s}  verdict", file=file)
        for name in metrics.END_TO_END_NAMES:
            a, b = e_old[workload].get(name), e_new[workload].get(name)
            if not a or not b:
                continue
            bound = metrics.BOUNDS[name]
            v, worse, s_old, s_new = verdict(a, b, metrics.BETTER[name], bound)
            status |= v == "REGRESSION"
            print(f"  {name:28s} {statistics.median(a):12.5g} {statistics.median(b):12.5g} "
                  f"{worse:+9.1%} {s_old:6.1%}/{s_new:6.1%} {bound:6.0%}  {v}", file=file)
        mover = biggest_mover(l_old.get(workload, {}), l_new.get(workload, {}))
        if mover:
            print(f"  per-layer metric that moved most: {mover[0]} {mover[1]:+.1%}", file=file)
    for side, data in (("old", old), ("new", new)):
        bad = [r for r in data["runs"] if not r["correct"]]
        for r in bad:
            print(f"{side}: {r['workload']} seed={r['seed']} had {r['failed']} failed "
                  f"of {r['attempted']} operations", file=file)
    if old.get("machine") != new.get("machine"):
        print("note: the sets were measured on different machines / library versions",
              file=file)
    return int(status)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    old, new = (json.loads(open(p).read()) for p in argv)
    return report(old, new, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
