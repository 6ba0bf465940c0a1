"""Per-PR trend analytics over the history ledger.

``repro trend`` reads ``BENCH_history.jsonl`` (see
:mod:`repro.obs.history`) and answers the trajectory questions the
paper answers table-by-table: which experiments moved between two
runs, by how many cycles (exact — the simulation is deterministic, so
any nonzero delta is a real change, not noise), where the cycles went
(per path-category movers), and what the wall clock did (banded
through the same ``timings.`` tolerance rules the regression sentinel
uses, because wall time measures the host).

Everything here is a pure function of the ledger: given the same
entries, :func:`trend_doc` returns the same document and
:func:`render_trend` the same text, byte for byte.  The dashboard's
trend section (``repro report --history``) builds on the same doc.

Per-category movers are ranked in the taxonomy's display order
(:data:`repro.obs.taxonomy.DISPLAY_ORDER`) and the headline columns
are the ledger's own ``HEADLINE_FIELDS``, so the trend table can never
rank a category the profiler does not produce or show a column the
ledger does not record.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import baseline
from repro.obs.history import HEADLINE_FIELDS
from repro.obs.taxonomy import DISPLAY_ORDER

#: Longest sparkline series the trend doc carries per experiment (and
#: for the total); older entries beyond the cap are dropped from the
#: series (never from the deltas).
SPARK_POINTS = 32


def _entry_name(entry: Dict, index: int) -> str:
    """A human name for one ledger entry: label, else short sha, else #n."""
    if entry.get("label"):
        return str(entry["label"])
    sha = entry.get("git", {}).get("sha")
    if sha:
        return str(sha)[:12]
    return f"#{index + 1}"


def _wall_total(entry: Dict) -> Optional[float]:
    wall = entry.get("wall", {})
    if not wall:
        return None
    return round(sum(wall.values()), 3)


def _wall_delta(
    key: str, old: Optional[float], new: Optional[float],
    policy: Dict[str, object],
) -> Dict[str, object]:
    """One wall-time movement, banded like the sentinel bands it.

    ``key`` is the leaf path the sentinel would use (``timings.E7``),
    so the same committed policy file governs both the gate and the
    trend report's wording.
    """
    if old is None or new is None:
        return {"old": old, "new": new, "status": "missing"}
    rule = baseline.rule_for(key, policy)
    finding = baseline.check_leaf(key, old, new, policy)
    out: Dict[str, object] = {
        "old": old,
        "new": new,
        "status": "outside-band" if finding is not None else "within-band",
        "kind": rule["kind"],
    }
    if old > 0:
        out["ratio"] = round(new / old, 4)
    return out


def step(
    old: Dict, new: Dict,
    policy: Optional[Dict[str, object]] = None,
    old_name: str = "old", new_name: str = "new",
    movers_limit: int = 5,
) -> Dict:
    """The delta document between two consecutive ledger entries."""
    policy = policy if policy is not None else baseline.DEFAULT_POLICY
    old_exp = old["experiments"]
    new_exp = new["experiments"]
    shared = [key for key in new_exp if key in old_exp]
    experiments: Dict[str, Dict] = {}
    for key in sorted(shared, key=lambda k: int(k[1:])):
        before, after = old_exp[key], new_exp[key]
        cycles_old = before["total_cycles"]
        cycles_new = after["total_cycles"]
        entry: Dict[str, object] = {
            "cycles": {
                "old": cycles_old,
                "new": cycles_new,
                "delta": cycles_new - cycles_old,
                "ratio": round(cycles_new / cycles_old, 6),
            },
            "shape": {
                "old": before["shape_holds"],
                "new": after["shape_holds"],
            },
            "wall": _wall_delta(
                f"timings.{key}",
                old.get("wall", {}).get(key),
                new.get("wall", {}).get(key),
                policy,
            ),
            "headline": {
                column: {
                    "old": before["headline"].get(column),
                    "new": after["headline"].get(column),
                }
                for column in HEADLINE_FIELDS
            },
        }
        experiments[key] = entry
    movers = sorted(
        (
            (key, entry["cycles"]["delta"])
            for key, entry in experiments.items()
            if entry["cycles"]["delta"] != 0
        ),
        key=lambda pair: (-abs(pair[1]), int(pair[0][1:])),
    )
    category_movers = _category_movers(old_exp, new_exp, shared)
    return {
        "from": {
            "label": old.get("label"),
            "sha": old.get("git", {}).get("sha"),
            "name": old_name,
        },
        "to": {
            "label": new.get("label"),
            "sha": new.get("git", {}).get("sha"),
            "name": new_name,
        },
        "experiments": experiments,
        "movers": [
            {"id": key, "delta": delta}
            for key, delta in movers[:movers_limit]
        ],
        "category_movers": category_movers[:movers_limit],
        "summary": {
            "shared": len(shared),
            "added": sorted(
                (k for k in new_exp if k not in old_exp),
                key=lambda k: int(k[1:]),
            ),
            "removed": sorted(
                (k for k in old_exp if k not in new_exp),
                key=lambda k: int(k[1:]),
            ),
            "changed": sum(
                1 for entry in experiments.values()
                if entry["cycles"]["delta"] != 0
            ),
            "total_cycles": {
                "old": sum(old_exp[k]["total_cycles"] for k in shared),
                "new": sum(new_exp[k]["total_cycles"] for k in shared),
            },
            "wall_total": _wall_delta(
                "timings.total", _wall_total(old), _wall_total(new), policy
            ),
        },
    }


def _category_movers(old_exp: Dict, new_exp: Dict,
                     shared: List[str]) -> List[Dict]:
    """Cycle deltas summed per path category across shared experiments."""
    totals: Dict[str, List[int]] = {}
    for key in shared:
        for side, exp in ((0, old_exp), (1, new_exp)):
            for category, cycles in exp[key]["attribution"].items():
                totals.setdefault(category, [0, 0])[side] += cycles
    ranked = []
    order = {name: rank for rank, name in enumerate(DISPLAY_ORDER)}
    for category in sorted(
        totals,
        key=lambda c: (
            -abs(totals[c][1] - totals[c][0]),
            order.get(c, len(order)),
            c,
        ),
    ):
        old_total, new_total = totals[category]
        delta = new_total - old_total
        if delta == 0:
            continue
        ranked.append({
            "category": category,
            "old": old_total,
            "new": new_total,
            "delta": delta,
        })
    return ranked


def trend_doc(
    entries: List[Dict],
    policy: Optional[Dict[str, object]] = None,
) -> Dict:
    """The full trend document for a ledger (oldest entry first)."""
    if not entries:
        raise ValueError("trend needs at least one history entry")
    policy = policy if policy is not None else baseline.DEFAULT_POLICY
    names = [_entry_name(entry, index)
             for index, entry in enumerate(entries)]
    steps = [
        step(entries[index - 1], entries[index], policy,
             old_name=names[index - 1], new_name=names[index])
        for index in range(1, len(entries))
    ]
    ids = sorted(
        {key for entry in entries for key in entry["experiments"]},
        key=lambda k: int(k[1:]),
    )
    window = entries[-SPARK_POINTS:]
    series = {
        key: [
            entry["experiments"].get(key, {}).get("total_cycles")
            for entry in window
        ]
        for key in ids
    }
    series["__total__"] = [
        entry["summary"]["total_cycles"] for entry in window
    ]
    return {
        "entries": [
            {
                "name": names[index],
                "label": entry.get("label"),
                "sha": entry.get("git", {}).get("sha"),
                "total_cycles": entry["summary"]["total_cycles"],
                "experiments": entry["summary"]["experiments"],
                "shapes_holding": entry["summary"]["shapes_holding"],
                "wall_total": _wall_total(entry),
                "verdict": entry.get("verdict"),
            }
            for index, entry in enumerate(entries)
        ],
        "steps": steps,
        "series": series,
        "series_window": len(window),
    }


# -- text rendering ----------------------------------------------------------

_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[Optional[int]]) -> str:
    """A unicode sparkline; gaps render as spaces."""
    numbers = [v for v in values if v is not None]
    if not numbers:
        return ""
    low, high = min(numbers), max(numbers)
    span = high - low
    out = []
    for value in values:
        if value is None:
            out.append(" ")
        elif span == 0:
            out.append(_TICKS[0])
        else:
            index = int((value - low) / span * (len(_TICKS) - 1))
            out.append(_TICKS[index])
    return "".join(out)


def _signed(value: int) -> str:
    return f"{value:+,}" if value else "="


def _wall_phrase(wall: Dict[str, object]) -> str:
    if wall.get("status") == "missing":
        return "wall n/a"
    ratio = wall.get("ratio")
    arrow = f"{wall['old']}s -> {wall['new']}s"
    if isinstance(ratio, (int, float)) and ratio > 0:
        if ratio < 1.0:
            arrow += f" ({1.0 / ratio:.2f}x faster"
        elif ratio > 1.0:
            arrow += f" ({ratio:.2f}x slower"
        else:
            arrow += " (unchanged"
        arrow += f", {wall['status']})"
    return f"wall {arrow}"


def render_trend(doc: Dict, limit: int = 5) -> str:
    """The prose trend report (``--json`` prints the doc instead)."""
    lines = [f"BENCH history: {len(doc['entries'])} entries"]
    for entry in doc["entries"]:
        sha = (entry["sha"] or "")[:12]
        wall = entry["wall_total"]
        verdict = entry["verdict"]
        lines.append(
            f"  {entry['name']:<14} {sha:<12} "
            f"{entry['total_cycles']:>16,} cycles  "
            f"{entry['shapes_holding']}/{entry['experiments']} shapes"
            + (f"  wall {wall}s" if wall is not None else "")
            + ("" if verdict is None else
               f"  [{'ok' if verdict['ok'] else 'REGRESSION'}]")
        )
    total = doc["series"]["__total__"]
    if len(total) > 1:
        lines.append(f"  total cycles trend: {sparkline(total)}")
    for change in doc["steps"]:
        lines.append("")
        lines.append(
            f"{change['from']['name']} -> {change['to']['name']}:"
        )
        summary = change["summary"]
        cycles = summary["total_cycles"]
        lines.append(
            f"  total {cycles['old']:,} -> {cycles['new']:,} cycles "
            f"({_signed(cycles['new'] - cycles['old'])}), "
            f"{summary['changed']}/{summary['shared']} experiments moved; "
            + _wall_phrase(summary["wall_total"])
        )
        for key in summary["added"]:
            lines.append(f"  added {key}")
        for key in summary["removed"]:
            lines.append(f"  removed {key}")
        if not change["movers"]:
            lines.append("  cycle deltas: none (bit-identical runs)")
        else:
            lines.append("  top movers:")
            for mover in change["movers"][:limit]:
                entry = change["experiments"][mover["id"]]
                cycles = entry["cycles"]
                lines.append(
                    f"    {mover['id']:<4} {_signed(mover['delta']):>16} "
                    f"cycles  ({cycles['old']:,} -> {cycles['new']:,}, "
                    f"x{cycles['ratio']:.4f})"
                )
            if change["category_movers"]:
                lines.append("  where the cycles went:")
                for mover in change["category_movers"][:limit]:
                    lines.append(
                        f"    {mover['category']:<14} "
                        f"{_signed(mover['delta']):>16} cycles"
                    )
        shape_flips = [
            key for key, entry in change["experiments"].items()
            if entry["shape"]["old"] != entry["shape"]["new"]
        ]
        for key in shape_flips:
            entry = change["experiments"][key]
            lines.append(
                f"  SHAPE FLIP {key}: {entry['shape']['old']} -> "
                f"{entry['shape']['new']}"
            )
    return "\n".join(lines) + "\n"
