import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnetagg import cli
from qnetagg.model import (
    Channel,
    QrsCode,
    config_to_dict,
    save_config,
    uniform_configuration,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, tmp_path=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qnetagg.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return result


@pytest.fixture
def fig2b_config(tmp_path):
    config = uniform_configuration(
        QrsCode(7, 4),
        1,
        [(Channel("purple", 0.97), 3), (Channel("green", 0.95), 4)],
    )
    path = tmp_path / "fig2b.json"
    save_config(config, str(path))
    return str(path)


@pytest.fixture
def broken_config(tmp_path):
    config = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.96), 7)])
    doc = config_to_dict(config)
    doc["photons"][-1]["carries"][0]["qubits"] = 2  # qudit 6 short one qubit
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_success_exit_zero_and_value(fig2b_config):
    result = run_cli(["success", fig2b_config])
    assert result.returncode == 0
    value = float(result.stdout.split()[1])
    assert value == pytest.approx(0.99503, abs=5e-4)
    # 15 significant digits
    assert len(result.stdout.split()[1].replace(".", "").lstrip("0")) >= 14


def test_success_validation_error_names_qudit(broken_config):
    result = run_cli(["success", broken_config])
    assert result.returncode == 2
    assert "qudit 6" in result.stderr


@pytest.mark.parametrize(
    "edit,named",
    [
        (lambda doc: doc["code"].pop("k"), "missing key 'k'"),
        (lambda doc: doc["channels"][0].update(p=1.5), "outside [0, 1]"),
        (lambda doc: doc["code"].update(k=0), "must be positive"),
    ],
    ids=["missing-k", "probability", "k-zero"],
)
def test_success_malformed_document_exit_2(tmp_path, edit, named):
    doc = config_to_dict(uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.96), 7)]))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["success", str(path)])
    assert result.returncode == 2
    assert named in result.stderr
    assert "Traceback" not in result.stderr


def test_success_mc_byte_identical(fig2b_config):
    a = run_cli(["success", fig2b_config, "--mc", "100000", "--seed", "7"])
    b = run_cli(["success", fig2b_config, "--mc", "100000", "--seed", "7"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_sweep_reproduces_anchor(tmp_path):
    out = tmp_path / "curve.csv"
    summary = tmp_path / "curve.json"
    result = run_cli(
        [
            "sweep", "--d", "43", "--k", "22", "--q", "1", "--n", "20",
            "--grid", "0.98:1.0:0.002", "--out", str(out), "--summary", str(summary),
        ]
    )
    assert result.returncode == 0
    rows = [
        line.split(",") for line in out.read_text().splitlines() if line and line[0] not in "#p"
    ]
    table = {float(a): float(b) for a, b in rows}
    assert table[0.99] == pytest.approx(0.81, abs=0.01)
    report = json.loads(summary.read_text())
    assert report["target"] == 0.995
    assert report["residual_bound"] == 1e-9
    assert report["points"] == len(rows)


def test_sweep_single_constant_curve():
    result = run_cli(
        ["sweep", "--single", "--d", "7", "--k", "4", "--q", "3", "--grid", "0.5:0.6:0.05"]
    )
    assert result.returncode == 0
    rows = [l for l in result.stdout.splitlines() if l and l[0] not in "#p"]
    p1s = {row.split(",")[1] for row in rows}
    assert len(p1s) == 1


def test_sweep_whole_grid_infeasible():
    result = run_cli(
        ["sweep", "--d", "43", "--k", "22", "--q", "1", "--n", "20", "--grid", "0.3:0.4:0.05"]
    )
    assert result.returncode == 3


def test_sweep_deterministic_output(tmp_path):
    args = ["sweep", "--fig4a", "--grid", "0.95:1.0:0.01"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.stdout == b.stdout


def test_sweep_without_layout_exit_2():
    result = run_cli(["sweep", "--d", "43", "--k", "22"])
    assert result.returncode == 2
    assert "choose --single" in result.stderr


def test_allocate_reports_aggregated_split(tmp_path):
    problem = {
        "channels": [
            {"id": "blue", "p": 0.98, "capacity": 2},
            {"id": "red", "p": 0.972, "capacity": 2},
            {"id": "black", "p": 0.96, "capacity": 7},
        ],
        "codes": [{"d": 3, "k": 2}, {"d": 5, "k": 3}, {"d": 7, "k": 4}],
        "q": 1,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    result = run_cli(["allocate", str(path)])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["code"] == {"d": 5, "k": 3}
    assert report["split"] == {"blue": 2, "red": 2, "black": 1}


def test_allocate_empty_channels_exit_4(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"channels": [], "codes": [{"d": 3, "k": 2}], "q": 1}))
    result = run_cli(["allocate", str(path)])
    assert result.returncode == 4


@pytest.mark.parametrize(
    "flags",
    [["--grid", "0.5:1.5:0.1"], ["--target", "1.5"]],
    ids=["grid", "target"],
)
def test_sweep_range_errors_exit_2(flags):
    result = run_cli(["sweep", "--d", "43", "--k", "22", "--q", "1", "--n", "20", *flags])
    assert result.returncode == 2
    assert "outside [0, 1]" in result.stderr


@pytest.mark.parametrize(
    "channel,code,named",
    [
        ({"id": "a", "p": 1.7, "capacity": 3}, {"d": 3, "k": 2}, "channel 'a'"),
        ({"id": "a", "p": 0.9, "capacity": -1}, {"d": 3, "k": 2}, "channel 'a'"),
        ({"id": "a", "p": 0.9, "capacity": 4}, {"d": 4, "k": 2}, "d=4 k=2"),
    ],
    ids=["probability", "capacity", "code"],
)
def test_allocate_invalid_document_exit_2(tmp_path, channel, code, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"channels": [channel], "codes": [code], "q": 1}))
    result = run_cli(["allocate", str(path)])
    assert result.returncode == 2
    assert named in result.stderr


def test_allocate_missing_key_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"channels": [{"id": "a", "capacity": 3}], "codes": [{"d": 3, "k": 2}], "q": 1}
    path.write_text(json.dumps(doc))
    result = run_cli(["allocate", str(path)])
    assert result.returncode == 2
    assert "missing key 'p'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["success", "allocate"])
@pytest.mark.parametrize(
    "content,named",
    [
        (None, "No such file"),
        ("not json", "Expecting value"),
        ("[1, 2]", "malformed document"),
    ],
    ids=["missing-file", "not-json", "json-list"],
)
def test_unreadable_document_exit_2(tmp_path, command, content, named):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_text(content)
    result = run_cli([command, str(path)])
    assert result.returncode == 2
    assert named in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_verify_circuits_green(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(["verify-circuits", "--out", str(out)])
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_version_prints_schema():
    result = run_cli(["--version"])
    assert result.returncode == 0
    assert "schema" in result.stdout


def test_main_callable_directly(fig2b_config, capsys):
    code = cli.main(["success", fig2b_config])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("success_probability 0.995")
