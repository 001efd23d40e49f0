"""The config contract: every key's kind, default and bound come from
`selrec.config.FIELDS`, and a value outside it is refused at load."""
import json
import re
from pathlib import Path

import pytest

from selrec.cli import main
from selrec.config import FIELDS, REQUIRED, ConfigError, ExperimentConfig
from test_cli import BASE, EXAMPLE, record_solver_calls, write_config

ROOT = Path(__file__).resolve().parent.parent
NAN, INF = float("nan"), float("inf")

# each field set to each of these values in turn
PROBES = [None, "1", True, 0.5, NAN, INF, -INF, -1, [], [1.0], {}]
PROBE_IDS = ["null", "string", "true", "fraction", "nan", "inf", "-inf", "-1", "empty",
             "list", "object"]
# the pairs that load: a fraction in a real field, null where null is the
# default, and one entry in a list of times or of sizes
VALID = [("s", 0.5), ("t_max", 0.5), ("output_times", None), ("output_times", [1.0]), ("z_threshold", 0.5),
         ("agreement_tol", 0.5), ("moran_population_sizes", [1.0])]
PAIRS = [(field, value, f"{field}-{vid}") for field in FIELDS
         for value, vid in zip(PROBES, PROBE_IDS)]


def test_probe_set_covers_every_field():
    assert len(FIELDS) == 16
    assert len(PAIRS) == 176
    assert sum((field, value) not in VALID for field, value, _ in PAIRS) == 169


def _run(argv, cfgp, out):
    try:
        return main([*argv, "--config", str(cfgp), "--out", str(out)])
    except SystemExit as exc:  # argparse refuses the arguments
        return exc.code


@pytest.mark.parametrize(
    "field, value",
    [pytest.param(f, v, id=i) for f, v, i in PAIRS if (f, v) not in VALID],
)
def test_invalid_value_refused_before_any_work(tmp_path, capsys, monkeypatch, field, value):
    # every command that reads the field exits 1 naming it, with no solver
    # call and no file; an exception other than ConfigError would escape
    # main here, where a console run prints its traceback
    cfgp = tmp_path / "probe.json"
    cfgp.write_text(json.dumps({**EXAMPLE, field: value}))
    calls = record_solver_calls(monkeypatch)
    for command in FIELDS[field].read_by:
        out = tmp_path / command
        assert _run([command], cfgp, out) == 1, command
        err = capsys.readouterr().err
        assert re.search(rf"\b{field}\b", err), (command, err)
        assert "Traceback" not in err
        assert calls == [], command
        assert not out.exists(), command


# a list value takes its probe's name, as in PAIRS: pytest would name it by
# its position in VALID, which moves whenever an earlier entry goes; the
# other values already have ids of their own (s-0.5, output_times-None)
@pytest.mark.parametrize(
    "field, value", VALID,
    ids=lambda v: PROBE_IDS[PROBES.index(v)] if isinstance(v, list) else None,
)
def test_valid_value_loads(field, value):
    ExperimentConfig.from_dict({**EXAMPLE, field: value})


@pytest.mark.parametrize("value", [None, 0.5], ids=["null", "fraction"])
def test_retired_ode_step_key_is_an_unknown_field(tmp_path, capsys, monkeypatch, value):
    # the ODE starts at one step per grid cell; a config naming the old
    # start-step key exits 1 before any solver runs
    cfgp = tmp_path / "old.json"
    cfgp.write_text(json.dumps({**EXAMPLE, "ode_step": value}))
    calls = record_solver_calls(monkeypatch)
    for command in ("solve", "verify"):
        out = tmp_path / command
        assert _run([command], cfgp, out) == 1, command
        assert "unknown config fields: ['ode_step']" in capsys.readouterr().err
        assert calls == [] and not out.exists(), command


@pytest.mark.parametrize("field", ["s", "rho", "t_max", "z_threshold"])
def test_integer_beyond_the_float_range_refused(field):
    value = [0.0, 0.0, 10 ** 400] if field == "rho" else 10 ** 400
    with pytest.raises(ConfigError, match=f"^{field} is beyond the float range"):
        ExperimentConfig.from_dict({**EXAMPLE, field: value})


@pytest.mark.parametrize(
    "product, message",
    [([[NAN, 0.5], [0.5, 0.5]], "initial marginal 0 mass nan deviates from 1"),
     ([[0.5, 0.5], [-0.5, 1.5]], "initial marginal 1 has a negative entry"),
     ([[0.5, 0.5], [0.2, 0.3, 0.5]], "initial marginal 1 must be a pair [p0, p1]"),
     ([[0.5, 0.5], ["0.5", 0.5]], "initial marginal 1 must be a list of numbers"),
     ([[0.5, 0.5]], "initial product needs 2 per-site marginals"),
     (None, "initial product needs 2 per-site marginals, got None")],
    ids=["nan", "negative", "triple", "string", "short", "null"],
)
def test_product_start_messages_name_initial(product, message):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({**BASE, "initial": {"product": product}})
    assert message in str(exc.value)


def test_unreadable_config_path_exits_one(tmp_path, capsys):
    # a directory, and a file that is not text
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        assert _run(["solve"], path, tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert f"cannot read config file {path}" in err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sizes", [[50], [50, 50]])
def test_moran_without_two_distinct_sizes_writes_a_null_slope(tmp_path, capsys, sizes):
    cfgp = write_config(tmp_path, moran_population_sizes=sizes)
    out = tmp_path / "run"
    assert _run(["moran"], cfgp, out) == 0
    assert capsys.readouterr().out.rstrip().endswith("; slope n/a")
    payload = json.loads((out / "moran_lln.json").read_text())
    assert payload["population_sizes"] == sizes
    assert payload["slope"] is None


def _readme_schema() -> tuple[dict, dict[str, list[str]]]:
    """README's config example and its table of fields, by key."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return example, rows


def test_readme_schema_table_matches_fields():
    example, table = _readme_schema()
    assert list(example) == list(table) == list(FIELDS)
    for key, field in FIELDS.items():
        kind, bound, default, read_by = table[key]
        assert kind == field.kind, key
        assert bound == (field.bound or "—"), key
        if field.default is REQUIRED:
            assert default == "required", key
        else:
            assert json.loads(default) == field.default, key
        assert read_by.split(", ") == list(field.read_by), key
