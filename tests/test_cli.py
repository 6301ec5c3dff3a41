import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import binomial_tail
from qnetagg import cli, planner
from qnetagg.model import (
    Channel,
    MultiplexConfiguration,
    Photon,
    QrsCode,
    config_to_dict,
    load_config,
    read_document,
    save_config,
    uniform_configuration,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, tmp_path=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    result = subprocess.run(
        [sys.executable, "-m", "qnetagg.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
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


def test_success_negative_mc_exit_2(fig2b_config):
    result = run_cli(["success", fig2b_config, "--mc", "-5"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--mc -5" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["negative", "2**128"])
def test_success_seed_out_of_range_exit_2(fig2b_config, seed):
    result = run_cli(["success", fig2b_config, "--mc", "10", "--seed", str(seed)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"success: seed={seed} outside 0..2**128-1\n"


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


def test_sweep_summary_without_out(tmp_path):
    summary = tmp_path / "s.json"
    args = ["sweep", "--fig4a", "--grid", "0.95:1.0:0.01"]
    plain = run_cli(args)
    result = run_cli([*args, "--summary", str(summary)])
    assert result.returncode == 0
    assert result.stdout == plain.stdout
    rows = [line for line in result.stdout.splitlines() if line and line[0] not in "#p"]
    assert json.loads(summary.read_text())["points"] == len(rows)


@pytest.mark.parametrize(
    "d,k", [(43, 50), (42, 22), (43, 10)], ids=["k-above-d", "d-not-prime", "no-logical-qudit"]
)
def test_sweep_invalid_code_exit_2(d, k):
    result = run_cli(["sweep", "--d", str(d), "--k", str(k), "--n", "20"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"code d={d} k={k}: " in result.stderr


HUGE_D, HUGE_K = 1000000000000000003, 600000000000000000  # d beyond model.MAX_D


def test_sweep_huge_d_exit_2_at_once():
    # trial division of this d would not finish; the bound on d answers first
    result = run_cli(["sweep", "--d", str(HUGE_D), "--k", str(HUGE_K), "--n", "3"], timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert f"d={HUGE_D} exceeds MAX_D" in line


def test_allocate_huge_d_exit_2_at_once(tmp_path):
    path = tmp_path / "huge.json"
    channels = [{"id": "a", "p": 0.9, "capacity": 8}]
    path.write_text(json.dumps({"channels": channels, "codes": [{"d": HUGE_D, "k": HUGE_K}]}))
    result = run_cli(["allocate", str(path), "--target", "0.9"], timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert f"d={HUGE_D} exceeds MAX_D" in line


def test_allocate_at_the_largest_prime_code(tmp_path):
    # d = 65521, the largest prime within MAX_D: one block of 65521 qudits at
    # survival 0.52, whose binomial tail the engine holds within 1e-13
    path = tmp_path / "largest.json"
    channels = [{"id": "a", "p": 0.52, "capacity": 70000}]
    path.write_text(json.dumps({"channels": channels, "codes": [{"d": 65521, "k": 32761}], "q": 16}))
    result = run_cli(["allocate", str(path)], timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["split"] == {"a": 65521}
    assert abs(report["achieved"] - float(binomial_tail(65521, 0.52, 32760))) <= 1e-13


@pytest.mark.parametrize("n", [8, -1], ids=["above-d", "negative"])
def test_sweep_n_outside_the_code_exit_2(n):
    result = run_cli(["sweep", "--d", "7", "--k", "4", "--n", str(n)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"sweep: block of {n} qudits: counts must be >= 0 and total <= d=7\n"


def test_sweep_without_layout_exit_2():
    result = run_cli(["sweep", "--d", "43", "--k", "22"])
    assert result.returncode == 2
    assert "choose --single" in result.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["--fig4a", "--n", "20"],
        ["--single", "--d", "7", "--k", "4", "--n", "20"],
        ["--fig4a", "--fig4b-eq5"],
        ["--single", "--fig4a"],
        ["--fig4a", "--d", "43", "--k", "22", "--q", "3", "--grid", "0.9:1:0.05"],
        ["--fig4a", "--k", "22"],
        ["--fig4b-eq5", "--q", "1"],
    ],
    ids=["fig4a-n", "single-n", "fig4a-fig4b", "single-fig4a", "fig4a-dkq", "fig4a-k", "fig4b-q"],
)
def test_sweep_layout_flags_exclude_each_other(flags):
    result = run_cli(["sweep", *flags])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "not allowed with argument" in result.stderr


@pytest.mark.parametrize(
    "flags,code",
    [(["--single"], 0), (["--single", "--q", "0"], 2), (["--n", "20", "--q", "0"], 2)],
    ids=["q-absent", "single-q0", "two-channel-q0"],
)
def test_sweep_uniform_q_defaults_to_one(flags, code):
    result = run_cli(["sweep", "--d", "7", "--k", "4", *flags, "--grid", "0.9:1:0.05"])
    assert result.returncode == code, result.stderr
    if code == 0:
        assert "scenario=single(d=7,k=4,q=1)" in result.stdout.splitlines()[0]


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


@pytest.mark.parametrize(
    "channels,codes,named",
    [
        ([], [{"d": 3, "k": 2}], "the problem lists no channels"),
        ([{"id": "a", "p": 0.95, "capacity": 9}], [], "the problem lists no codes"),
        (
            [{"id": "a", "p": 0.95, "capacity": 9}],
            [{"d": 7, "k": 4}, {"d": 7, "k": 4}],
            "code d=7 k=4: appears more than once",
        ),
    ],
    ids=["no-channels", "no-codes", "repeated-code"],
)
def test_allocate_empty_or_repeated_entries_exit_2(tmp_path, channels, codes, named):
    # never a silent "no feasible allocation", nor one solution listed twice
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"channels": channels, "codes": codes, "q": 1}))
    result = run_cli(["allocate", str(path), "--target", "0.9"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"allocate: {named}"]


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
    "flags",
    [
        ["--fig4a", "--grid", "0.09:1.0:0.07"],
        ["--single", "--d", "7", "--k", "4", "--q", "3", "--grid", "0.116:1:0.017"],
    ],
    ids=["fig4a", "single"],
)
def test_sweep_grid_ending_at_one_exit_0(flags):
    # the grid's last point lands one ulp above 1 and is taken as 1
    result = run_cli(["sweep", *flags])
    assert result.returncode == 0, result.stderr
    rows = [line for line in result.stdout.splitlines() if line and line[0] not in "#p"]
    assert rows[-1].startswith("1.000000,")


@pytest.mark.parametrize(
    "grid,named",
    [("0:inf:0.1", "must be finite"), ("0:1:1e-12", "more than 1000000 points")],
    ids=["infinite", "too-many-points"],
)
def test_sweep_bad_grid_exit_2(grid, named):
    result = run_cli(["sweep", "--d", "43", "--k", "22", "--q", "1", "--n", "20", "--grid", grid])
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("sweep: grid ") and line.endswith(named)


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


def test_allocate_repeated_channel_id_exit_2(tmp_path):
    channels = [{"id": "a", "p": 0.93, "capacity": 5}, {"id": "a", "p": 0.95, "capacity": 5}]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"channels": channels, "codes": [{"d": 7, "k": 4}], "q": 1}))
    result = run_cli(["allocate", str(path), "--target", "0.9"])
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert "channel 'a': id appears more than once" in line


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


# ``verify-circuits`` stdout, byte for byte: six exact verdicts and the one
# numeric check all read 0.0.
VERIFY_CIRCUITS_STDOUT = """\
{
  "checks": [
    {
      "metric": "1 - fidelity",
      "name": "qutrit-encoder",
      "passed": true,
      "worst_error": 0.0,
      "worst_fidelity": 1.0
    },
    {
      "metric": "1 - fidelity",
      "name": "six-photon-encoder",
      "passed": true,
      "worst_error": 0.0,
      "worst_fidelity": 1.0
    },
    {
      "metric": "1 - fidelity",
      "name": "multiplexed-encoder",
      "passed": true,
      "worst_error": 0.0,
      "worst_fidelity": 1.0
    },
    {
      "metric": "1 - fidelity",
      "name": "qutrit-preparation",
      "passed": true,
      "worst_error": 0.0,
      "worst_fidelity": 1.0
    },
    {
      "metric": "operator error",
      "name": "cross-dof-cnot",
      "passed": true,
      "worst_error": 0.0
    },
    {
      "metric": "operator error",
      "name": "branch-toffoli",
      "passed": true,
      "worst_error": 0.0
    },
    {
      "metric": "operator error",
      "name": "shared-photon-toffoli",
      "passed": true,
      "worst_error": 0.0
    }
  ],
  "passed": true
}
"""


def test_verify_circuits_stdout_pinned(capsys):
    assert cli.main(["verify-circuits"]) == 0
    assert capsys.readouterr().out == VERIFY_CIRCUITS_STDOUT


def test_version_prints_schema():
    result = run_cli(["--version"])
    assert result.returncode == 0
    assert "schema" in result.stdout


def test_main_callable_directly(fig2b_config, capsys):
    code = cli.main(["success", fig2b_config])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("success_probability 0.995")


def assert_one_line_exit_2(result, prefix):
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(prefix)
    return line


ALLOCATION = {"channels": [{"id": "a", "p": 0.95, "capacity": 7}], "codes": [{"d": 7, "k": 4}]}


@pytest.mark.parametrize(
    "command,where,raw,named",
    [
        ("success", ("photons", 0, "carries", 0, "qudit"), "1e400", "'qudit' must be an integer"),
        ("success", ("photons", 0, "carries", 0, "qudit"), "0.9", "'qudit' must be an integer"),
        ("success", ("code", "d"), "7.6", "'d' must be an integer"),
        ("success", ("channels", 0, "p"), '"0.9"', "'p' must be a number, not str"),
        ("success", ("withheld",), "true", "'withheld' must be an integer, not bool"),
        ("success", ("code",), "[7, 4]", "'code' must be an object, not list"),
        ("success", ("photons",), "6", "'photons' must be a list, not int"),
        ("success", ("channels", 0, "p"), "1" + "0" * 400, "'p' is too large a number"),
        ("success", ("channels", 0, "p"), "null", "'p' must be a number, not NoneType"),
        ("allocate", ("channels", 0, "capacity"), "1e400", "'capacity' must be an integer"),
        ("allocate", ("channels", 0, "p"), '"0.95"', "'p' must be a number, not str"),
        ("allocate", ("channels", 0, "capacity"), "7.9", "'capacity' must be an integer"),
        ("allocate", ("q",), "1.5", "'q' must be an integer, not float"),
        ("allocate", ("channels", 0), "3", "int holds no 'id'"),
    ],
    ids=[
        "qudit-overflow", "qudit-fraction", "d-fraction", "p-string", "withheld-bool",
        "code-list", "photons-number", "p-overflow", "p-null", "capacity-overflow",
        "channel-p-string", "capacity-fraction", "q-fraction", "channel-number",
    ],
)
def test_document_value_of_wrong_kind_exit_2(tmp_path, command, where, raw, named):
    # the value at ``where`` is replaced by the JSON text ``raw``
    if command == "success":
        doc = config_to_dict(uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.96), 7)]))
    else:
        doc = json.loads(json.dumps(ALLOCATION))
    *parents, key = where
    node = doc
    for step in parents:
        node = node[step]
    node[key] = "@"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"@"', raw))
    result = run_cli([command, str(path)])
    assert result.stdout == ""
    assert named in assert_one_line_exit_2(result, f"{command}: malformed document: ")


@pytest.mark.parametrize(
    "where,key,named",
    [
        ((), "witheld", "'witheld' in the document"),
        (("code",), "n", "'n' in 'code'"),
        (("channels", 0), "q", "'q' in a channel"),
        (("photons", 0), "qudits", "'qudits' in a photon"),
        (("photons", 0, "carries", 0), "qubit", "'qubit' in a carry"),
    ],
    ids=["top-level", "code", "channel", "photon", "carry"],
)
def test_unknown_document_key_exit_2(tmp_path, where, key, named):
    # a misspelt key is an error, never a silently applied default
    doc = config_to_dict(uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.96), 7)]))
    node = doc
    for step in where:
        node = node[step]
    node[key] = 2
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["success", str(path)])
    assert result.stdout == ""
    line = assert_one_line_exit_2(result, "success: malformed document: unknown key ")
    assert line.endswith(named)


@pytest.mark.parametrize(
    "where,key,named",
    [
        ((), "qq", "'qq' in the problem"),
        (("channels", 0), "capacty", "'capacty' in a problem channel"),
        (("codes", 0), "kk", "'kk' in a problem code"),
    ],
    ids=["top-level", "channel", "code"],
)
def test_unknown_problem_key_exit_2(tmp_path, where, key, named):
    # a misspelt key in an allocation problem is an error, never a silently applied default
    doc = json.loads(json.dumps(ALLOCATION))
    node = doc
    for step in where:
        node = node[step]
    node[key] = 3
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["allocate", str(path)])
    assert result.stdout == ""
    line = assert_one_line_exit_2(result, "allocate: malformed document: unknown key ")
    assert line.endswith(named)


@pytest.mark.parametrize(
    "command,once,twice",
    [
        ("success", '"p": 0.96', '"p": 0.99, "p": 0.5'),
        ("allocate", '"capacity": 7', '"capacity": 7, "capacity": 0'),
    ],
    ids=["success", "allocate"],
)
def test_duplicate_document_key_exit_2(tmp_path, command, once, twice):
    # a repeated key is an error, never read as its last value
    if command == "success":
        doc = config_to_dict(uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.96), 7)]))
    else:
        doc = ALLOCATION
    text = json.dumps(doc)
    assert text.count(once) == 1
    path = tmp_path / "doc.json"
    path.write_text(text.replace(once, twice))
    result = run_cli([command, str(path)])
    assert result.stdout == ""
    key = once.split('"')[1]
    line = assert_one_line_exit_2(result, f"{command}: malformed document: duplicate key ")
    assert line == f"{command}: malformed document: duplicate key {key!r} in one object"


def test_readme_documents_read(tmp_path):
    # the two JSON examples of README.md, in order: a configuration and an allocation problem
    readme = (SRC.parent / "README.md").read_text()
    blocks = [block.split("```")[0] for block in readme.split("```json\n")[1:]]
    assert len(blocks) == 2
    paths = [tmp_path / "config.json", tmp_path / "problem.json"]
    for path, block in zip(paths, blocks):
        path.write_text(block)
    config = load_config(str(paths[0]))
    assert config == MultiplexConfiguration(
        QrsCode(7, 4),
        (Channel("ch1", 0.96), Channel("ch2", 0.9)),
        tuple(Photon("ch1" if qudit < 4 else "ch2", ((qudit, 3),)) for qudit in range(7)),
        withheld=0,
    )
    # a valid layout, whose success line README quotes
    result = run_cli(["success", str(paths[0])])
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "success_probability 0.9995415552\n"
    assert f"`{result.stdout.strip()}`" in readme
    problem = planner.problem_from_dict(read_document(str(paths[1])))
    assert [(ch.id, ch.capacity) for ch in problem.channels] == [
        ("blue", 2), ("red", 2), ("black", 7)
    ]
    assert problem.codes == (QrsCode(3, 2), QrsCode(5, 3), QrsCode(7, 4)) and problem.q == 1


def test_cluster_beyond_engine_limit_exit_2(tmp_path):
    # photons along the edges of a random 8-regular graph over 131 qudits
    rng = random.Random(131)
    edges: set[frozenset] = set()
    while len(edges) < 524:
        perm = list(range(131))
        rng.shuffle(perm)
        cycle = {frozenset((perm[i], perm[i - 1])) for i in range(131)}
        if not cycle & edges:
            edges |= cycle
    photons = tuple(Photon("c", ((u, 1), (v, 1))) for u, v in sorted(map(sorted, edges)))
    config = MultiplexConfiguration(QrsCode(131, 66), (Channel("c", 0.9),), photons)
    path = tmp_path / "regular.json"
    save_config(config, str(path))
    result = run_cli(["success", str(path)])
    assert result.stdout == ""
    line = assert_one_line_exit_2(result, "success: cluster of 524 photons ")
    assert "2^16 states" in line


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--fig4a", "--grid", "0.95:1.0:0.01", "--out"],
        ["verify-circuits", "--out"],
    ],
    ids=["sweep", "verify-circuits"],
)
def test_unwritable_output_exit_2(tmp_path, argv):
    result = run_cli([*argv, str(tmp_path / "missing" / "out")])
    assert result.stdout == ""
    assert "No such file" in assert_one_line_exit_2(result, f"{argv[0]}: ")


def test_unwritable_summary_exit_2_after_curve(tmp_path):
    args = ["sweep", "--fig4a", "--grid", "0.95:1.0:0.01"]
    plain = run_cli(args)
    result = run_cli([*args, "--summary", str(tmp_path / "missing" / "s.json")])
    assert result.stdout == plain.stdout
    assert "No such file" in assert_one_line_exit_2(result, "sweep: ")


def test_invalid_configuration_one_line_per_violation(tmp_path):
    doc = config_to_dict(uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.96), 7)]))
    doc["photons"][0]["channel"] = "x"
    doc["photons"][-1]["carries"][0]["qubits"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["success", str(path)])
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 2 and all(line.startswith("invalid: ") for line in lines)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_main_lets_evaluation_errors_through(fig2b_config, monkeypatch, error):
    def broken(config):
        raise error("raised while evaluating")

    monkeypatch.setattr(cli, "success_probability", broken)
    with pytest.raises(error):
        cli.main(["success", fig2b_config])
