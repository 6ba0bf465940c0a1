"""One bench truth: every record comes from one producer, and the
committed bench files agree with each other.

The multi-CPU case matters: E17 runs its shootdown strategies on 2
CPUs, so a record built from CPU 0's ledger alone would report about
half the cycles the baseline holds.
"""

import json
import pathlib
import re

from repro import __main__ as cli
from repro.analysis import specs
from repro.obs import history, metrics

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_baseline.json"
HISTORY = REPO_ROOT / "BENCH_history.jsonl"

#: The record fields every producer must agree on.
AGREED = ("total_cycles", "attribution", "machines", "shape_holds")


def _stdout_record(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    # ``trace`` prints its summary line before the record.
    return json.loads(out[out.index("{"):])


def test_one_producer_on_a_multi_cpu_experiment(tmp_path, capsys):
    records = {
        # Cold cache: computes E17 and stores it.
        "run --json": _stdout_record(capsys, ["run", "E17", "--json"]),
        # Warm cache: served from the entry the run above stored.
        "profile --json": _stdout_record(
            capsys, ["profile", "E17", "--json"]
        ),
        # Its own recorder run, with tracing and monitor events on.
        "trace --json": _stdout_record(capsys, [
            "trace", "E17", "--out", str(tmp_path / "e17.trace.json"),
            "--json",
        ]),
    }
    bench_out = tmp_path / "bench.json"
    assert cli.main(["run", "E17", "--no-cache",
                     "--bench-out", str(bench_out)]) == 0
    capsys.readouterr()
    records["run --bench-out"] = metrics.load_bench_doc(
        bench_out)["experiments"][0]
    baseline = {
        record["id"]: record
        for record in metrics.load_bench_doc(BASELINE)["experiments"]
    }["E17"]
    assert baseline["measured"]["n_cpus"] == 2
    assert baseline["total_cycles"] == 6570273
    for name, record in records.items():
        assert record["id"] == "E17", name
        assert record["measured"]["n_cpus"] == 2, name
        for field in AGREED:
            assert record[field] == baseline[field], (name, field)
        assert record["derived"]["total_cycles"] == record["total_cycles"]
        assert sum(record["attribution"].values()) == record["total_cycles"]


def test_committed_bench_files_agree():
    baseline = json.loads(BASELINE.read_text())
    counts = metrics.validate_bench_doc(baseline)
    ids = [record["id"] for record in baseline["experiments"]]
    assert ids == specs.sorted_ids()
    assert counts["derived"] == len(ids)
    latest = history.load_history(HISTORY)[-1]
    assert sorted(latest["experiments"]) == sorted(ids)
    for record in baseline["experiments"]:
        row = latest["experiments"][record["id"]]
        for field in history.RECORD_FIELDS:
            assert row[field] == record[field], (record["id"], field)


def test_committed_ledger_rows_name_distinct_revisions():
    shas = [entry["git"]["sha"] for entry in history.load_history(HISTORY)]
    assert all(re.fullmatch(r"[0-9a-f]{40}", sha or "") for sha in shas), \
        shas
    assert len(set(shas)) == len(shas), shas
