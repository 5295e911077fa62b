import hashlib
import json
import os
import subprocess
import sys

import pytest


BASE = [sys.executable, "-m", "pwproj.cli"]


def run(args, cwd):
    return subprocess.run(
        BASE + args, cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_usage_error_exit_code(tmp_path):
    proc = run(["definitely-not-a-command"], tmp_path)
    assert proc.returncode == 64


@pytest.mark.parametrize(
    "args",
    [
        ["construct-hs", "--s", "1/2"],
        ["construct-hs", "--s", "1/0"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1",
         "--alpha", "1/0"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1",
         "--epsilon", "1/0"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1",
         "--epsilon", "3/2"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1",
         "--epsilon=-1/2"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1",
         "--alpha", "1"],
        ["walk", "--s", "0+1*sqrt(3)", "--T", "10", "--seed", "1", "--alpha", "0"],
        ["lamplighter", "--T", "10", "--M", "2", "--seed", "1", "--alpha", "x"],
    ],
)
def test_validation_error_exit_code(tmp_path, args):
    proc = run(args, tmp_path)
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "option, value",
    [("--alpha", "1/0"), ("--alpha", "0"), ("--alpha", "1"), ("--epsilon", "1/0"),
     ("--epsilon", "3/2"), ("--epsilon", "-1/2"), ("--epsilon", "1")],
)
def test_bad_fraction_option_fails_before_construction(monkeypatch, capsys, option, value):
    from pwproj import cli

    def construct(args):
        raise AssertionError("the construction ran before the options were checked")

    monkeypatch.setattr(cli, "_prechain_for", construct)
    argv = ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1",
            f"{option}={value}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {option}")


@pytest.mark.parametrize("command", ["construct-hs", "prechain"])
def test_zero_denominator_names_the_option(capsys, command):
    from pwproj import cli

    assert cli.main([command, "--s", "1/0"]) == 1
    assert capsys.readouterr().err == "error: --s: zero denominator in '1/0'\n"


def test_missing_seed_is_usage_error(tmp_path):
    proc = run(["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2"], tmp_path)
    assert proc.returncode == 64


@pytest.mark.parametrize(
    "args",
    [
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "0", "--seed", "1"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "0", "--M", "2", "--seed", "1"],
        ["summability", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "0", "--seed", "1"],
        ["entropy", "--s", "0+1*sqrt(3)", "--n", "0", "--M", "2", "--seed", "1"],
        ["lamplighter", "--T", "10", "--M", "0", "--seed", "1"],
        ["kernel", "--s", "0+1*sqrt(3)", "--cap", "10", "--sample", "-1"],
        ["graph", "--s", "0+1*sqrt(3)", "--cap", "x"],
        ["returns", "--target", "z", "--horizons", ",", "--M", "2", "--seed", "1"],
        ["returns", "--target", "z", "--horizons", "0", "--M", "2", "--seed", "1"],
        ["returns", "--target", "z", "--horizons", "10,-5", "--M", "2", "--seed", "1"],
    ],
)
def test_bad_count_is_usage_error(tmp_path, args):
    proc = run(args, tmp_path)
    assert proc.returncode == 64
    assert len(proc.stderr.splitlines()) == 1
    assert "error: argument --" in proc.stderr
    assert proc.stdout == ""


# SHA-256 of the stdout of small seeded runs.  Any change to a digest is a
# change to a seeded report, which the library promises to keep byte for byte.
SEEDED_REPORTS = {
    "walk": (
        ["walk", "--s", "0+1*sqrt(3)", "--T", "3000", "--seed", "1"],
        "e337a6a518a4e13ae4e143f9be155a554aebb98af41748ae3bf66cea51535d48",
    ),
    "witness": (
        ["witness", "--s", "0+1*sqrt(3)", "--T", "3000", "--M", "40", "--seed", "2"],
        "407046cf7b0bd87a945c70a29dd00303c913ec3d749341c1f527bef961d7cb05",
    ),
    "returns-z": (
        ["returns", "--target", "z", "--horizons", "100,500", "--M", "30", "--seed", "3"],
        "6e38df535f4b54c9ba340037b44bbf3c4f9dd8eec584c95f4894a6924709f1de",
    ),
    "lamplighter": (
        ["lamplighter", "--T", "500", "--M", "40", "--seed", "4"],
        "7ddd9addc21f595e29d5f8c425e5dfd106c35e3cdf47766a331628f0443d5800",
    ),
    "entropy": (
        ["entropy", "--s", "0+1*sqrt(3)", "--n", "4", "--M", "100", "--seed", "5"],
        "369190c5d18e4a3c038a2fc0aa0c9ef0a26ebe473f40d63032ae9486b20e674a",
    ),
}


@pytest.mark.parametrize("name", sorted(SEEDED_REPORTS))
def test_seeded_report_bytes(tmp_path, name):
    args, digest = SEEDED_REPORTS[name]
    proc = subprocess.run(BASE + args, cwd=tmp_path, capture_output=True, timeout=600)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_returns_echoes_horizons_text(tmp_path):
    proc = run(
        ["returns", "--target", "z", "--horizons", "30, 60", "--M", "4", "--seed", "1"],
        tmp_path,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["config"]["horizons"] == "30, 60"
    assert payload["horizons"] == [30, 60]


def test_construct_hs_output(tmp_path):
    proc = run(["construct-hs", "--s", "0+1*sqrt(3)"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["configuration"] == {"0+1*sqrt(3)": 1}
    assert payload["hz_member"] is True
    assert payload["break_fields"][0] == 3
    assert all(k != 3 for k in payload["break_fields"][1:])
    assert os.path.exists(tmp_path / "construct_hs.json")


def test_graph_dot_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    args = ["graph", "--s", "0+1*sqrt(3)", "--cap", "60", "--format", "dot"]
    assert run(args, a).returncode == 0
    assert run(args, b).returncode == 0
    da = (a / "graph_60.dot").read_bytes()
    db = (b / "graph_60.dot").read_bytes()
    assert da == db


def test_verify_tree_ok(tmp_path):
    proc = run(["verify-tree", "--s", "0+1*sqrt(3)", "--cap", "150"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "OK"
    assert payload["tree_vertices"] > 0


def test_witness_reproducible(tmp_path):
    args = [
        "witness",
        "--s",
        "0+1*sqrt(3)",
        "--T",
        "400",
        "--M",
        "30",
        "--seed",
        "7",
    ]
    p1 = run(args, tmp_path)
    assert p1.returncode == 0
    first = p1.stdout
    p2 = run(args, tmp_path)
    assert p2.returncode == 0
    assert p2.stdout == first
    payload = json.loads(first)
    assert payload["config"]["seed"] == 7
    assert payload["verdict"] in ("SUCCEED", "FAIL")


def test_returns_z(tmp_path):
    proc = run(
        ["returns", "--target", "z", "--horizons", "500", "--M", "40", "--seed", "3"],
        tmp_path,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["mean_returns"][0] > 0
    assert payload["config"]["target"] == "z"


def test_lamplighter_report(tmp_path):
    proc = run(
        ["lamplighter", "--T", "400", "--M", "40", "--seed", "5"], tmp_path
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert 0 <= payload["heavy_tail"]["stabilized_fraction"] <= 1
    assert payload["srw_control"]["heavy_tail"] is False


def test_kernel_ok(tmp_path):
    proc = run(
        ["kernel", "--s", "0+1*sqrt(3)", "--cap", "80", "--sample", "40"], tmp_path
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["violations"] == 0


def test_walk_and_summability_and_entropy(tmp_path):
    proc = run(
        ["walk", "--s", "0+1*sqrt(3)", "--T", "300", "--seed", "5"], tmp_path
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "value" in payload and "last_change" in payload

    proc = run(
        [
            "summability",
            "--s",
            "0+1*sqrt(3)",
            "--T",
            "200",
            "--M",
            "20",
            "--seed",
            "5",
        ],
        tmp_path,
    )
    assert proc.returncode == 0
    lines = (tmp_path / "summability.csv").read_text().splitlines()
    assert lines[0] == "step,hit_mass,cumulative"
    assert len(lines) == 201

    proc = run(
        ["entropy", "--s", "0+1*sqrt(3)", "--n", "3", "--M", "60", "--seed", "5"],
        tmp_path,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["entropy_nats"] > 0


def test_prechain_idempotent_output(tmp_path):
    args = ["prechain", "--s", "0+1*sqrt(3)"]
    p1 = run(args, tmp_path)
    p2 = run(args, tmp_path)
    assert p1.returncode == 0
    assert p2.returncode == 0
    json.loads(p1.stdout)
    assert p1.stdout == p2.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["walk", "--s", "0+1*sqrt(3)", "--T", "10", "--seed", "1"],
        ["witness", "--s", "0+1*sqrt(3)", "--T", "10", "--M", "2", "--seed", "1"],
        ["lamplighter", "--T", "10", "--M", "2", "--seed", "1"],
        ["returns", "--target", "z", "--horizons", "10", "--M", "2", "--seed", "1"],
    ],
    ids=lambda args: args[0],
)
def test_threads_is_not_an_option(tmp_path, args):
    proc = run(args + ["--threads", "2"], tmp_path)
    assert proc.returncode == 64
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def test_closed_stdout_is_not_a_traceback(tmp_path):
    proc = subprocess.Popen(
        BASE + ["prechain", "--s", "0+1*sqrt(3)"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # the reader is gone before the report is printed
    try:
        err = proc.stderr.read()
        returncode = proc.wait(timeout=600)
    finally:
        proc.kill()
        proc.stderr.close()
    assert returncode == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    assert (tmp_path / "prechain.json").exists()


def test_out_dir_env(tmp_path):
    out = tmp_path / "reports"
    env = dict(os.environ, PWPROJ_OUT=str(out))
    proc = subprocess.run(
        BASE + ["prechain", "--s", "0+1*sqrt(3)"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0
    assert (out / "prechain.json").exists()


@pytest.mark.parametrize("spelling", ["--out", "PWPROJ_OUT"])
def test_unusable_out_dir_fails_before_the_run(monkeypatch, capsys, tmp_path, spelling):
    # in process, so a traceback would be an exception escaping main
    from pwproj import cli

    def construct(args):
        raise AssertionError("the construction ran before the output directory was made")

    monkeypatch.setattr(cli, "_prechain_for", construct)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = ["prechain", "--s", "0+1*sqrt(3)"]
    if spelling == "--out":
        argv = ["--out", str(blocker)] + argv
    else:
        monkeypatch.setenv("PWPROJ_OUT", str(blocker / "sub"))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {spelling}: ")
