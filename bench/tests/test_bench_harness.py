"""Self-tests of the benchmark harness in bench/.

They spawn real benchmark children, so they take a few seconds.
"""

import json
import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_seed_draws_couplings_only():
    a = run.make_config("dynamics_chain", 1)
    b = run.make_config("dynamics_chain", 2)
    assert a == run.make_config("dynamics_chain", 1)
    assert a["hamiltonian"] != b["hamiltonian"]
    for cfg in (a, b):
        assert cfg["lattice"] == run.WORKLOADS["dynamics_chain"][
            "config"]["lattice"]
        assert cfg["params"] == run.WORKLOADS["dynamics_chain"][
            "config"]["params"]
    assert run.make_config("verify_all", 5) is None


def _corrupt(src, dest):
    shutil.copytree(src, dest)
    path = os.path.join(dest, "verify_all", "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["results"]["trace_identity_defect_f"] += 1e-9
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def test_corrupted_reference_counts_as_failed(tmp_path):
    bad = tmp_path / "bad_reference"
    _corrupt(run.REFERENCE_DIR, bad)
    for reference, failed in ((run.REFERENCE_DIR, 0), (str(bad), 1)):
        workdir = tmp_path / f"work{failed}"
        workdir.mkdir()
        report = run.run_workload("verify_all", run.DEFAULT_SEED, 0, 0,
                                  str(workdir), reference_dir=reference,
                                  min_samples=1)
        # the warm-up sample is checked too
        assert len(report.samples) == 1 + run.WARMUP_SAMPLES
        assert report.failed == failed * len(report.samples)
        _lines, result = run.summarize(report, 0)
        assert result["failed"] / result["attempted"] == failed


def test_corrupted_csv_value_is_a_mismatch(tmp_path):
    ref = os.path.join(run.REFERENCE_DIR, "dynamics_chain", "dynamics.csv")
    assert run.compare_csv(ref, ref) == []
    rows = open(ref).read().splitlines()
    t, link, flux, charge = rows[5].split(",")
    rows[5] = ",".join([t, link, repr(float(flux) + 1e-9), charge])
    bad = tmp_path / "dynamics.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert run.compare_csv(str(bad), ref)
    # the flux column depends on the seed, so the seed-free check passes
    assert run.compare_csv(str(bad), ref, columns=("t", "link")) == []


@pytest.fixture(scope="module")
def potential_spans(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("traced")
    config = workdir / "config.json"
    config.write_text(json.dumps(
        run.make_config("potential_chain", run.DEFAULT_SEED)))
    sample_dir = workdir / "sample"
    sample = run.run_sample(str(config), str(sample_dir), True,
                            run.time.monotonic() + run.DEADLINE_S)
    assert sample.ok, sample.problems
    assert run.check_outputs("potential_chain", run.DEFAULT_SEED,
                             str(sample_dir / "out"), run.REFERENCE_DIR) == []
    with open(sample_dir / "spans.json") as fh:
        return json.load(fh)


def test_traced_potential_has_six_sector_enumerations(potential_spans):
    names = [span[0] for span in potential_spans["spans"]]
    assert names.count("gauge.sector_basis") == 6
    metrics = tracer.layer_metrics(potential_spans)
    assert metrics["gauge.sector_basis_calls"] == 6
    assert metrics["gauge.states_scanned"] == 6 * 559872


def test_self_time_within_span_duration(potential_spans):
    spans = potential_spans["spans"]
    assert spans
    for name, start, end, parent, own in spans:
        assert -1e-9 <= own <= end - start, name
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
