"""Output checks that feed ``error_rate``, and the workload environment."""

import run
import workload


def test_workload_env_drops_repro_overrides():
    env = run.child_env({
        "REPRO_SIM": "packed",
        "REPRO_SELECTOR": "naive",
        "REPRO_WIRE": "json",
        "PATH": "/usr/bin",
        "PYTHONPATH": "elsewhere",
    })
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["PATH"] == "/usr/bin"
    paths = env["PYTHONPATH"].split(":")
    assert paths[0] == str(run.ROOT / "src")
    assert paths[-1] == "elsewhere"


def test_sample_mismatches_finds_a_wrong_record():
    pairs = [(i, {"total_cycles": 10 * i}) for i in range(30)]
    pairs[7] = (7, {"total_cycles": 71})

    def recompute(cell):
        return {"total_cycles": 10 * cell}

    assert workload.sample_mismatches(pairs, 30, seed=1, recompute=recompute) == [7]
    assert workload.sample_mismatches(pairs[:5], 30, seed=1, recompute=recompute) == []


def _short_fig8_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "QUICK_CHECK_SAMPLE", 1000)
    cold = workload.Fig8Cold(seed=3, tmp=tmp_path, quick=True)
    cold.setup()
    cold.run(0.3, None)
    return cold


def test_correct_records_pass(tmp_path, monkeypatch):
    cold = _short_fig8_run(tmp_path, monkeypatch)
    assert cold.ops and all(op.error is None for op in cold.ops)
    assert cold.verify() is None  # shorter than the digest prefix
    assert cold.failed == set()
    assert cold.check_pin(None) == "quick"


def test_mutated_record_raises_error_rate(tmp_path, monkeypatch):
    cold = _short_fig8_run(tmp_path, monkeypatch)
    cold.pairs[-1][1]["total_cycles"] += 1
    cold.verify()
    assert cold.failed == {cold.pair_op[-1]}
    assert len(cold.failed) / len(cold.ops) > 0


def test_pinned_digest_mismatch_fails_covered_operations(tmp_path):
    cold = workload.Fig8Cold(seed=7, tmp=tmp_path, quick=False)
    cold.ops = [workload.Op(0.1, 1, None) for _ in range(cold.digest_ops + 3)]
    pin = workload.pinned_digest("fig8-cold", 7)
    assert pin is not None
    assert cold.check_pin(pin) == "match"
    assert cold.check_pin(None) == "short"
    assert cold.check_pin("0" * 64) == "mismatch"
    assert cold.failed == set(range(cold.digest_ops))
    assert workload.Fig8Cold(seed=12345, tmp=tmp_path, quick=False).check_pin("x") == "unpinned"
