import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairideal
from pairideal import cli
from pairideal.fixtures import get_fixture
from pairideal.groebner import GroebnerError
from pairideal.io import InputError, InputSpec, spec_for_realization
from pairideal.primes import PointError
from pairideal.resolution import ResolutionError
from pairideal.ring import RingError
from pairideal.scalars import FieldError
from pairideal.workbench import Workbench


# the child imports the package from where this process found it, so the
# CLI runs in a checkout that is not installed
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(pairideal.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pairideal.cli", *args], capture_output=True, text=True, env=_ENV
    )


def test_round_trip():
    spec = spec_for_realization(get_fixture("seven"))
    again = InputSpec.from_json(json.loads(spec.render()))
    assert again.render() == spec.render()
    re = again.realization()
    assert re.rank == 3 and re.n == 7


def test_fractions_in_matrix(tmp_path):
    data = {
        "name": "halves",
        "field": "rational",
        "matrix": [["1/2", 1], [0, "2/3"]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    spec = InputSpec.from_file(path)
    assert spec.realization().rank == 2


# a prime or a switch of the wrong JSON type
_SILENT_BAD_INPUTS = [
    {"name": "x", "field": {"prime": 32003.7}, "matrix": [[1, 0, 1], [0, 1, 1]]},
    {"name": "x", "field": {"prime": True}, "matrix": [[1, 0, 1], [0, 1, 1]]},
    {
        "name": "x",
        "field": "rational",
        "matrix": [[1, 0, 0], [0, 1, 0]],
        "options": {"drop_loops": "false"},
    },
    {
        "name": "x",
        "field": {"prime": 3},
        "matrix": [[1, 0, 1], [0, 1, 1]],
        "options": {"allow_small_prime": "no"},
    },
    {"name": "x", "field": "rational", "matrix": [[1, 0, True], [0, 1, 1]]},
    {"name": 7, "field": "rational", "matrix": [[1, 0, 1], [0, 1, 1]]},
]


@pytest.mark.parametrize(
    "bad",
    [
        {"name": "x", "field": "rational"},  # missing matrix
        {"name": "x", "field": "rational", "matrix": []},
        {"name": "x", "field": "rational", "matrix": [[1], [1, 2]]},
        {"name": "x", "field": "rational", "matrix": [["1/0"]]},
        {"name": "x", "field": "real", "matrix": [[1]]},
        {"name": "x", "field": "rational", "matrix": [[1]], "options": {"beans": 1}},
        {"name": "x", "field": {"prime": "abc"}, "matrix": [[1]]},
        {"name": "x", "field": {"prime": " 32003 "}, "matrix": [[1]]},
        {"name": "x", "field": {"prime": "32003"}, "matrix": [[1]]},
        *_SILENT_BAD_INPUTS,
    ],
)
def test_schema_violations(bad):
    with pytest.raises(InputError):
        spec = InputSpec.from_json(bad)
        spec.realization()


def test_small_prime_guard():
    spec = InputSpec.from_json(
        {"name": "x", "field": {"prime": 3}, "matrix": [[1, 0, 1, 1], [0, 1, 1, 2]]}
    )
    with pytest.raises(InputError):
        spec.realization()
    spec2 = InputSpec.from_json(
        {
            "name": "x",
            "field": {"prime": 3},
            "matrix": [[1, 0, 1, 1], [0, 1, 1, 2]],
            "options": {"allow_small_prime": True},
        }
    )
    re = spec2.realization()
    assert spec2.warnings
    assert re.rank == 2


def test_cli_fixtures_and_der():
    out = run_cli("fixtures", "list")
    assert out.returncode == 0
    assert "bracelet9" in out.stdout
    der = run_cli("der", "a3", "--json")
    assert der.returncode == 0
    data = json.loads(der.stdout)
    assert data["free"] and data["generator_degrees"] == [0, 1, 2]


def test_cli_compare_recipe():
    out = run_cli("compare", "fail_A", "fail_PA", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["certificate"]["flat"] == [1, 2, 3, 5]
    same = run_cli("compare", "fail_A", "fail_A", "--json")
    assert json.loads(same.stdout)["certificate"] is None


def test_cli_verify_exit_codes():
    ok = run_cli("verify", "u:2:4", "--theorem", "min-primes")
    assert ok.returncode == 0
    # the strict slice inclusion sits at (2;2), past bound 1, where no record
    # can show it: the check passes and reports the inclusion
    low = run_cli(
        "verify", "bracelet9", "--theorem", "linear-type", "--bound", "1", "--window", "4", "--json"
    )
    assert low.returncode == 0
    data = json.loads(low.stdout)
    assert data["passed"] and data["equal_up_to_bound"]
    assert data["strict_slice_inclusion"] == [2, 2]
    good = run_cli("verify", "bracelet9", "--theorem", "linear-type", "--bound", "2", "--window", "4")
    assert good.returncode == 0


def test_cli_verify_failure_exits_2(monkeypatch, capsys):
    def fail(self, target):
        return {"passed": False, "first_violation": "planted", "target": target, "fixture": "a3"}

    monkeypatch.setattr(Workbench, "verify", fail)
    assert cli.main(["verify", "a3", "--theorem", "min-primes"]) == 2
    assert "first violation: planted" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "field": "rational", "matrix": [["1/0"]]}))
    out = run_cli("analyze", str(bad))
    assert out.returncode == 1
    missing = run_cli("analyze", "no-such-fixture")
    assert missing.returncode == 1


@pytest.mark.parametrize("field", ["rational", {"prime": 32003}], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("entry", [" 1 ", "1e0", "1_000", "\u0663", "1.5", "1/0", "1/32003"])
def test_cli_refuses_entries_outside_the_scalar_grammar(entry, field, tmp_path, capsys):
    # an entry is a sign, ASCII digits and an optional '/digits', with a
    # denominator that is a unit of the field: QQ and GF(p) read one grammar
    path = tmp_path / "m.json"
    matrix = [[1, 0, entry], [0, 1, 1]]
    path.write_text(json.dumps({"name": "x", "field": field, "matrix": matrix}))
    if entry == "1/32003" and field == "rational":
        assert cli.main(["flats", str(path)]) == 0
        return
    assert cli.main(["flats", str(path)]) == 1
    assert repr(entry) in _one_error_line(capsys)


def test_cli_loop_error(tmp_path):
    loopy = tmp_path / "loopy.json"
    loopy.write_text(
        json.dumps({"name": "loopy", "field": "rational", "matrix": [[1, 0], [0, 0]]})
    )
    out = run_cli("flats", str(loopy))
    assert out.returncode == 1
    assert "loops" in out.stderr
    ok = run_cli("flats", str(loopy), "--drop-loops")
    assert ok.returncode == 0


def test_cli_determinism():
    a = run_cli("primes", "u:2:4", "--json")
    b = run_cli("primes", "u:2:4", "--json")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_cli_closed_pipe_has_no_traceback():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("sizing a pipe needs Linux")
    read_end, write_end = os.pipe()
    # one page of pipe, less than the report: the writer is still writing
    # when the reader leaves
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pairideal.cli", "analyze", "a3", "--json"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n") and (byte := os.read(read_end, 1)):
        line += byte
    os.close(read_end)
    _, err = proc.communicate()
    assert line == b"{\n"
    assert "Traceback" not in err
    assert proc.returncode == 1


def test_cli_betti_json():
    out = run_cli("betti", "u:1:2", "--method", "both", "--json")
    data = json.loads(out.stdout)
    assert data["methods_agree"]
    assert data["koszul"]["entries"] == [{"p": 0, "i": 1, "j": 1, "dim": 1}]


def _spec(options):
    return {"name": "x", "field": "rational", "matrix": [[1, 0, 1], [0, 1, 1]], "options": options}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "a3", "--theorem", "linear-type", "--bound", "0"],
        ["verify", "a3", "--theorem", "linear-type", "--bound", "-2"],
        ["betti", "a3", "--window", "0"],
        ["betti", "a3", "--window", "-1"],
    ],
)
def test_cli_rejects_counts_below_one(argv, capsys):
    assert cli.main(argv) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv,options",
    [
        (["verify", "{path}", "--theorem", "linear-type"], {"bound": 0}),
        (["betti", "{path}"], {"window": 0}),
        (["betti", "{path}"], {"window": -3}),
        (["betti", "{path}"], {"window": "4"}),
        # compare reads no option, but still checks the file's
        (["compare", "{path}", "{path}"], {"window": -3, "bound": "abc"}),
        (["flats", "{path}"], {"bound": "abc"}),
    ],
)
def test_cli_rejects_bad_file_options(tmp_path, argv, options, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_spec(options)))
    assert cli.main([a.format(path=path) for a in argv]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "a3", "a3", "--window", "3"],
        ["compare", "a3", "a3", "--bound", "3"],
        ["compare", "a3", "a3", "--drop-loops"],
        ["flats", "a3", "--window", "3"],
        ["primes", "a3", "--bound", "3"],
        ["der", "a3", "--window", "3"],
        ["betti", "a3", "--bound", "3"],
        ["verify", "a3", "--theorem", "nope"],
        ["flats"],
    ],
)
def test_cli_refuses_options_the_command_does_not_read(argv, capsys):
    # usage errors, too, get one error line and exit 1, not argparse's
    # usage text and exit 2 (the code of a failed verification target)
    assert cli.main(argv) == 1
    _one_error_line(capsys)


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--theorem" in capsys.readouterr().out


def test_cli_fixtures_show_needs_a_name(capsys):
    assert cli.main(["fixtures", "show"]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("bad", _SILENT_BAD_INPUTS)
def test_cli_refuses_silent_bad_inputs(tmp_path, bad, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["der", str(path), "--json"]) == 1
    _one_error_line(capsys)


def test_cli_file_option_is_used_when_flag_absent(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_spec({"window": 2, "bound": 1})))
    argv = ["analyze", str(path), "--no-primes", "--no-betti", "--json"]
    assert cli.main(argv) == 0
    echoed = json.loads(capsys.readouterr().out)["realization"]
    assert (echoed["window"], echoed["bound"]) == (2, 1)
    assert cli.main(argv + ["--window", "3", "--bound", "2"]) == 0
    echoed = json.loads(capsys.readouterr().out)["realization"]
    assert (echoed["window"], echoed["bound"]) == (3, 2)


@pytest.mark.parametrize(
    "name", ["boolean:x", "u:a:b", "u:2", "boolean:3:4", "boolean:13", "u:2:13"]
)
def test_cli_bad_fixture_parameters(name, capsys):
    assert cli.main(["flats", name]) == 1
    err = _one_error_line(capsys)
    assert "Traceback" not in err and not err.startswith('error: "')


@pytest.mark.parametrize(
    "exc", [GroebnerError, PointError, ResolutionError, RingError, FieldError]
)
def test_cli_maps_engine_errors(exc, monkeypatch, capsys):
    def fail(source, args):
        raise exc("engine refused")

    monkeypatch.setattr(cli, "_bench", fail)
    assert cli.main(["flats", "a3"]) == 1
    assert _one_error_line(capsys) == "error: engine refused\n"
