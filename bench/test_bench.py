"""Self-test of the benchmark on a tiny dense-structures pass.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_program()
import workloads  # noqa: E402

SPEC = run.SPEC


@pytest.fixture
def tiny(monkeypatch):
    """A dense-structures pass of 8 requests, generated in this process."""
    monkeypatch.setattr(workloads, "DENSE_QUOTAS", {(0, 2, 2): 4, (1, 2, 1): 4})
    monkeypatch.setattr(run, "generate_inputs",
                        lambda name, seed, workdir: workloads.WORKLOADS[name](seed, workdir))


def _run(capsys, trace):
    assert run.main(["--workload", "dense-structures", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_metric_is_printed_with_its_unit(tiny, capsys):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = _run(capsys, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
        for name, unit in printed.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in lines)


def test_counts_repeat_exactly(tiny, capsys):
    def counts():
        _, result = _run(capsys, 1)
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "bytes", "terms")}

    first = counts()
    assert first["gradedpoly.mul.calls"] > 0
    assert first["bracket.poisson_bracket.term_pairs"] > 0
    assert counts() == first


def _dense_outcomes(tmp_path):
    requests = workloads.dense_structures(3, tmp_path)
    out = []
    for req in requests:
        code, text = run.execute(req)
        out.append((req, code, json.loads(text)))
    return out


def test_perturbed_fail_is_not_a_failure(tiny, tmp_path):
    fails = [(req, code, body) for req, code, body in _dense_outcomes(tmp_path)
             if req.expect == "agree" and code == 1]
    assert fails, "the tiny suite should contain a perturbed input that fails"
    for req, code, body in fails:
        assert workloads.judge(req.expect, code, body) is None


def test_wrong_exit_code_is_a_failure(tiny, tmp_path, monkeypatch):
    outcomes = _dense_outcomes(tmp_path)
    for req, code, body in outcomes:
        assert workloads.judge(req.expect, code, body) is None
        assert workloads.judge(req.expect, 1 - code, body) is not None

    forced = outcomes[0][0]
    real_execute = run.execute

    def execute(req):
        code, text = real_execute(req)
        return (1 - code if req is forced else code), text

    monkeypatch.setattr(run, "execute", execute)
    tally = run.Tally()
    tally.run_pass([req for req, _, _ in outcomes], workloads.judge)
    assert tally.attempted == len(outcomes)
    assert len(tally.failures) == 1 and tally.failures[0].startswith(forced.label)


def test_known_mc_solve_answers(tmp_path):
    for expect, text in workloads.mc_solve_texts(2).items():
        path = tmp_path / "solve.json"
        path.write_text(text)
        req = workloads.Request("mc-solve", expect, len(text),
                                argv=["--quiet", "--file", str(path), "mc-solve"])
        code, out = run.execute(req)
        assert workloads.judge(expect, code, json.loads(out)) is None
