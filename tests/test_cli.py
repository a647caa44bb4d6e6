import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hardneg
from hardneg import batch_engine, cli, errors, gradients
from hardneg.cli import main
from hardneg.gradients import LOSS_REGISTRY

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_instance(path, points, variant=None):
    payload = {key: list(map(float, vec)) for key, vec in
               zip(("x1", "x2", "y1", "y2"), points)}
    if variant:
        payload["variant"] = variant
    path.write_text(json.dumps(payload))
    return path


def test_solve_shared_endpoint(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json",
        ([1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]),
    )
    code, out = run_cli(capsys, "solve", str(instance))
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] < 1e-9
    assert set(payload) >= {"case_id", "alpha", "beta", "p1", "p2", "distance"}


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_solve_antipodal_is_input_error(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "anti.json", ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1])
    )
    code, out = run_cli(capsys, "solve", str(instance))
    assert code == 2
    assert json.loads(out)["error"] == "DegenerateArc"


def test_solve_matches_oracle(tmp_path, capsys):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(4, 6))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    instance = write_instance(tmp_path / "inst.json", points)
    code, solve_out = run_cli(capsys, "solve", str(instance))
    assert code == 0
    code, oracle_out = run_cli(
        capsys, "oracle", str(instance), "--resolution", "1e-3"
    )
    assert code == 0
    solver_d = json.loads(solve_out)["distance"]
    oracle_d = json.loads(oracle_out)["best_distance"]
    assert solver_d <= oracle_d + 1e-9
    assert oracle_d - solver_d <= 2e-3


def test_oracle_resolution_refinement(tmp_path, capsys):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(4, 4))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    instance = write_instance(tmp_path / "inst.json", points)
    _, coarse = run_cli(capsys, "oracle", str(instance), "--resolution", "2e-2")
    _, fine = run_cli(capsys, "oracle", str(instance), "--resolution", "1e-2")
    assert json.loads(fine)["best_distance"] <= json.loads(coarse)["best_distance"] + 1e-12


def test_segment_variant_from_instance_field(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "seg.json",
        ([-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1]),
        variant="segment",
    )
    code, out = run_cli(capsys, "solve", str(instance))
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "segment"
    assert abs(payload["k1"] - 0.5) < 1e-9
    assert abs(payload["distance"] - 1.0) < 1e-9


def test_cases_svg_is_valid_xml(tmp_path, capsys):
    rng = np.random.default_rng(2)
    points = rng.normal(size=(4, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    instance = write_instance(tmp_path / "inst.json", points)
    out_dir = tmp_path / "fig"
    code, out = run_cli(capsys, "cases", str(instance), "--out-dir", str(out_dir))
    assert code == 0
    svg_path = out_dir / "cases.svg"
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) >= 10  # nine cases (two interior roots) plus winner ring
    assert (out_dir / "manifest.json").exists()


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out = run_cli(
        capsys, "oracle", "--sweep", "6", "--resolution", "5e-3",
        "--seed", "1", "--out-dir", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["instances"] == 6
    assert summary["solver_above_oracle"] == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 7
    assert (out_dir / "sweep_summary.json").exists()


def test_sweep_without_out_dir_is_input_error(capsys):
    code, out = run_cli(capsys, "oracle", "--sweep", "3")
    assert code == 2


def test_experiment_zero_steps(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "spec": {"num_classes": 3, "samples_per_class": 4, "dimension": 6,
                 "concentration": 2.5, "seed": 0},
        "losses": ["triplet"],
        "loss_config": {"margin": 0.2},
        "steps": 0,
        "seeds": [0],
    }))
    out_dir = tmp_path / "exp"
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert len(summary["runs"]) == 1
    history = (out_dir / "history_triplet_seed0.csv").read_text().strip().splitlines()
    assert len(history) == 2  # header plus the initial entry


def test_experiment_paired_losses(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "spec": {"num_classes": 3, "samples_per_class": 4, "dimension": 6,
                 "concentration": 2.5, "seed": 0},
        "losses": ["triplet", "loop_triplet"],
        "loss_config": {"margin": 0.2},
        "steps": 3,
        "learning_rate": 0.05,
        "seeds": [0, 1],
    }))
    out_dir = tmp_path / "exp"
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert len(summary["runs"]) == 4
    assert set(summary["median_final_recall_at_1"]) == {"triplet", "loop_triplet"}
    for name in ("triplet", "loop_triplet"):
        for seed in (0, 1):
            lines = (out_dir / f"history_{name}_seed{seed}.csv").read_text().splitlines()
            assert len(lines) == 5  # header + steps 0..3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "experiment"


def test_experiment_unknown_loss(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"losses": ["nope"], "steps": 1}))
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(out)["error"] == "ConfigError"


def test_solve_out_dir_writes_solution_and_manifest(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    out_dir = tmp_path / "run"
    code, out = run_cli(capsys, "solve", str(instance), "--out-dir", str(out_dir))
    assert code == 0
    stored = json.loads((out_dir / "solution.json").read_text())
    assert stored == json.loads(out)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 0


def test_non_finite_instance_is_input_error(tmp_path, capsys):
    instance = tmp_path / "nan.json"
    instance.write_text('{"x1": [NaN, 0, 0], "x2": [0, 1, 0], "y1": [0, 0, 1], "y2": [1, 1, 0]}')
    for command in ("solve", "oracle"):
        code, out = run_cli(capsys, command, str(instance))
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"


def test_oracle_zero_resolution_is_input_error(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    out_dir = tmp_path / "s"
    for resolution in ("0", "inf", "-inf", "nan", "1e-300"):
        for argv in (
            ("oracle", str(instance), f"--resolution={resolution}", "--out-dir", str(out_dir)),
            ("oracle", "--sweep", "2", f"--resolution={resolution}", "--out-dir", str(out_dir)),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 2
            assert json.loads(out)["error"] == "ParseError"
            assert not out_dir.exists()


def test_oracle_bad_sweep_is_input_error(tmp_path, capsys):
    out_dir = tmp_path / "s"
    for argv in (("--sweep", "-3"), ("--sweep", "2", "--seed", "-1")):
        code, out = run_cli(capsys, "oracle", *argv, "--out-dir", str(out_dir))
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"
        assert not out_dir.exists()


def test_sweep_rejects_an_instance(tmp_path, capsys):
    # A sweep draws random instances: an instance file given with it, and its
    # variant, used to be ignored, and the manifest named the file.
    out_dir = tmp_path / "s"
    for name in ("instance_segment.json", "instance_arc.json"):
        code, out = run_cli(capsys, "oracle", str(ROOT / "configs" / name), "--sweep", "2",
                            "--resolution", "1e-2", "--out-dir", str(out_dir))
        assert code == 2
        error = json.loads(out)
        assert error["error"] == "ParseError" and name in error["message"]
        assert not out_dir.exists()
    code, _ = run_cli(capsys, "oracle", "--sweep", "2", "--resolution", "1e-2",
                      "--out-dir", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["config_path"] == ""


def test_experiment_unknown_variant(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"losses": ["loop_triplet"], "steps": 1, "variant": "cone"}))
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(out)["error"] == "ConfigError"


def test_variants_defined_once():
    assert cli.VARIANTS is batch_engine.VARIANTS is gradients.VARIANTS


def test_misspelled_instance_variant_is_input_error(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]), variant="segmnet"
    )
    for command in ("solve", "oracle"):
        code, out = run_cli(capsys, command, str(instance))
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "ParseError"
        assert "segmnet" in payload["message"]


SOLVE_KEYS = {
    "arc": ["variant", "case_id", "alpha", "beta", "p1", "p2", "distance"],
    "segment": ["variant", "case_id", "k1", "k2", "p1", "p2", "distance"],
}


def test_solve_key_order_for_both_variants(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    for variant, keys in SOLVE_KEYS.items():
        code, out = run_cli(capsys, "solve", str(instance), "--variant", variant)
        assert code == 0
        assert list(json.loads(out)) == keys


def test_manifest_keys(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    out_dir = tmp_path / "run"
    code, _ = run_cli(capsys, "oracle", str(instance), "--resolution", "5e-2",
                      "--seed", "3", "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert list(manifest) == ["command", "config_path", "out_dir", "seed", "timestamp", "version"]
    assert manifest["command"] == "oracle"
    assert manifest["config_path"] == str(instance)
    assert manifest["out_dir"] == str(out_dir)
    assert manifest["seed"] == 3
    assert manifest["version"] == cli.__version__


def test_bad_command_line_is_json_parse_error(tmp_path, capsys):
    # argparse used to print its usage on stderr and raise SystemExit(2),
    # with nothing on stdout.
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    for argv in (
        ("solve",),
        ("oracle", str(instance), "--resolution", "abc"),
        ("bogus",),
        ("solve", str(instance), "--variant", "segmnet"),
        ("oracle", "--sweep", "two"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        payload = json.loads(captured.out)
        assert list(payload) == ["error", "message"]
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith("hardneg")
        assert captured.err == ""


def test_help_and_version_still_exit_zero(capsys):
    for argv in (["--help"], ["solve", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert cli.__version__ in capsys.readouterr().out


def test_cases_rejects_segment_instances(tmp_path, capsys):
    # The figure lives in the arcs' angle space; a segment instance used to be
    # drawn as the arc problem of its renormalized points (or fail as a
    # DegenerateArc), without a word about the variant.
    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps({"variant": "segment", "x1": [2, 0.1, 0], "x2": [0, 3, 0.2],
                                  "y1": [0.5, 0.5, 1], "y2": [1, -1, 2]}))
    out_dir = tmp_path / "fig"
    for instance in (skewed, ROOT / "configs" / "instance_segment.json"):
        for argv in (("cases", str(instance)), ("cases", str(instance), "--out-dir", str(out_dir))):
            code, out = run_cli(capsys, *argv)
            assert code == 2
            payload = json.loads(out)
            assert payload["error"] == "ParseError"
            assert "segment" in payload["message"]
            assert not out_dir.exists()


def test_out_dir_that_cannot_be_created_is_input_error(tmp_path, capsys):
    # An --out-dir below a file, or naming one, used to end in an OSError
    # traceback and exit 1, after `solve` had printed its payload.
    blocker = tmp_path / "file"
    blocker.write_text("")
    instance = str(ROOT / "configs" / "instance_arc.json")
    commands = (("solve", instance), ("oracle", instance, "--resolution", "1e-2"),
                ("oracle", "--sweep", "2", "--resolution", "1e-2"), ("cases", instance),
                ("experiment", str(ROOT / "configs" / "experiment_paired.json")))
    for out_dir in (blocker / "x", blocker):
        for argv in commands:
            code, out = run_cli(capsys, *argv, "--out-dir", str(out_dir))
            assert code == 2
            payload = json.loads(out)  # the error is all stdout holds
            assert payload["error"] == "ParseError"
            assert str(out_dir) in payload["message"]
    assert blocker.read_text() == ""


def _assert_only_error(out, error, *fragments):
    payload = json.loads(out)  # the error is all stdout holds
    assert list(payload) == ["error", "message"]
    assert payload["error"] == error
    for fragment in fragments:
        assert fragment in payload["message"]


def test_output_name_taken_by_a_directory_is_input_error(tmp_path, capsys):
    # Only the manifest's write was guarded: any other output name taken by a
    # directory ended in an IsADirectoryError traceback and exit 1.
    instance = str(ROOT / "configs" / "instance_arc.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"spec": SMALL_SPEC, "losses": ["triplet"], "steps": 1}))
    cases = (
        (("solve", instance), "manifest.json"),
        (("solve", instance), "solution.json"),
        (("oracle", instance, "--resolution", "1e-2"), "oracle.json"),
        (("oracle", "--sweep", "2", "--resolution", "1e-2"), "sweep.csv"),
        (("oracle", "--sweep", "2", "--resolution", "1e-2"), "sweep_summary.json"),
        (("experiment", str(config)), "history_triplet_seed0.csv"),
        (("experiment", str(config)), "summary.json"),
        (("cases", instance), "cases.svg"),
    )
    for index, (argv, name) in enumerate(cases):
        out_dir = tmp_path / f"out{index}"
        (out_dir / name).mkdir(parents=True)
        code, out = run_cli(capsys, *argv, "--out-dir", str(out_dir))
        assert code == 2, argv
        _assert_only_error(out, "ParseError", str(out_dir / name))


def test_input_that_is_not_utf8_is_input_error(tmp_path, capsys):
    # Bytes that are not UTF-8 raised UnicodeDecodeError out of the JSON reader.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    out_dir = tmp_path / "out"
    for argv in (("solve", str(bad)), ("oracle", str(bad)), ("cases", str(bad)),
                 ("solve", str(bad), "--out-dir", str(out_dir)),
                 ("experiment", str(bad), "--out-dir", str(out_dir))):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        _assert_only_error(out, "ParseError", "malformed JSON", str(bad))
        assert not out_dir.exists()


# The nine package errors that the caller's input causes, and their base.
INPUT_ERROR_NAMES = {"InputError", "ParseError", "ConfigError", "DegenerateArc",
                     "DegenerateSegment", "DimensionMismatch", "NearZeroVector",
                     "NonFiniteInput", "InvalidBatchShape", "OddClassCount"}
ERROR_TYPES = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.HardNegError)]


def test_every_error_type_maps_to_its_exit_code(monkeypatch, capsys):
    # Exit 2 exactly for input errors, 1 for every other package error.
    for error_type in ERROR_TYPES:
        def command(args, error_type=error_type):
            raise error_type("stubbed")

        monkeypatch.setattr(cli, "cmd_solve", command)
        code, out = run_cli(capsys, "solve", "instance.json")
        assert code == (2 if error_type.__name__ in INPUT_ERROR_NAMES else 1), error_type
        _assert_only_error(out, error_type.__name__, "stubbed")


def test_input_errors_share_one_base():
    input_types = {t.__name__ for t in ERROR_TYPES if issubclass(t, errors.InputError)}
    assert input_types == INPUT_ERROR_NAMES
    assert hardneg.InputError is errors.InputError


def _experiment_error(tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "x"
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(out_dir))
    assert code == 2
    assert json.loads(out)["error"] == "ConfigError"
    assert not out_dir.exists()  # rejected before the manifest is written


SMALL_SPEC = {"num_classes": 3, "samples_per_class": 4, "dimension": 6}


def test_experiment_config_not_an_object(tmp_path, capsys):
    _experiment_error(tmp_path, capsys, ["triplet"])


def test_experiment_single_class_spec(tmp_path, capsys):
    spec = dict(SMALL_SPEC, num_classes=1)
    _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_bad_learning_rate(tmp_path, capsys):
    for lr in ("nan", "inf", 0.0, -0.05):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": 1, "learning_rate": lr})


def test_experiment_steps_must_be_integer(tmp_path, capsys):
    for steps in (2.7, True):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": steps})


def test_experiment_empty_seeds(tmp_path, capsys):
    _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                         "steps": 1, "seeds": []})


def test_experiment_summary_records_run_timings(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"spec": SMALL_SPEC, "losses": ["triplet"], "steps": 2,
                                  "seeds": [0, 1]}))
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "exp"))
    assert code == 0
    for run in json.loads((tmp_path / "exp" / "summary.json").read_text())["runs"]:
        assert run["train_s"] > 0.0
        assert run["evaluate_s"] > 0.0


def test_experiment_losses_must_be_a_list_of_names(tmp_path, capsys):
    for losses in ("triplet", [], [["triplet"]]):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": losses, "steps": 1})


def test_experiment_seeds_must_be_nonnegative_integers(tmp_path, capsys):
    for seeds in ("12", 3, [-1], [0, -2], ["1"]):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": 1, "seeds": seeds})


LOSS_CONFIG_FLOATS = ("margin", "ms_epsilon", "ms_margin", "ms_alpha", "ms_beta")


def test_experiment_nan_loss_config(tmp_path, capsys):
    # A NaN margin used to make every hinge test false: exit 0 and loss 0.
    for name in LOSS_CONFIG_FLOATS:
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": 1, "loss_config": {name: float("nan")}})


def test_experiment_infinite_loss_config(tmp_path, capsys):
    for name in LOSS_CONFIG_FLOATS:
        for value in (float("inf"), float("-inf")):
            _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                                 "steps": 1, "loss_config": {name: value}})


def test_experiment_zero_samples_per_class(tmp_path, capsys):
    spec = dict(SMALL_SPEC, samples_per_class=0)
    _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_negative_samples_per_class(tmp_path, capsys):
    spec = dict(SMALL_SPEC, samples_per_class=-2)
    _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_non_finite_concentration(tmp_path, capsys):
    for value in (float("nan"), float("inf")):
        spec = dict(SMALL_SPEC, concentration=value)
        _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_collapsing_concentration(tmp_path, capsys):
    # Past about 1e12 a class's rows coincide within the segment solver's
    # collapse length; a segment table then raised DegenerateSegment mid-run,
    # after the manifest was written.
    for value in (1e12, 1e300):
        spec = {"num_classes": 3, "samples_per_class": 2, "dimension": 4, "concentration": value}
        _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["loop_hphn"], "steps": 0,
                                             "variant": "segment"})


def test_experiment_rejects_bad_fields_before_the_manifest(tmp_path, capsys):
    # Most of these used to write the manifest and then raise a traceback, run
    # without end (huge steps) or exit 1 on a diverged step (huge rate or MS
    # scale); a bool margin and an MS beta of 400 are rejected by the same checks.
    spec_values = {
        "num_classes": (1e20, 2.5, "3", float("nan"), [4], 2**63, 3000),
        "samples_per_class": (1e20, 4.5, 10**30),
        "dimension": (1e300, float("inf"), 10**30, 5000),
        "seed": (-1, "0"),
        "concentration": (True,),
    }
    config_values = [("ms_epsilon", [[0]]), ("ms_alpha", 1e20), ("ms_beta", 1e20),
                     ("margin", True), ("ms_beta", 400.0)]
    payloads = [{"spec": dict(SMALL_SPEC, **{key: value})}
                for key, values in spec_values.items() for value in values]
    payloads += [{"loss_config": {key: value}} for key, value in config_values]
    payloads += [{"learning_rate": 1e300}, {"steps": 1e300}, {"steps": 10**30}]
    # A bool or a string rate used to train at 1.0 or at the string's value, a
    # bool concentration at 1, and an integer rate beyond float range raised
    # OverflowError.
    payloads += [{"learning_rate": True}, {"learning_rate": "0.5"}, {"learning_rate": 10**400}]
    for fields in payloads:
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["ms"], "steps": 1,
                                             **fields})


# Fuzzing the commands that solve one instance. Each field of an instance is
# either a well-formed vector or one of the malformed values below; a call
# must exit 0 with finite results, or 2 with a JSON error, and never raise.
_KEYS = ("x1", "x2", "y1", "y2")
_FIELD_KINDS = ("keep", "keep", "keep", "zero", "antiparallel", "duplicate", "longer",
                "shorter", "non_finite", "huge", "tiny", "junk", "missing")
_JUNK = (st.none() | st.booleans() | st.text(max_size=3) | st.floats()
         | st.lists(st.lists(st.floats(-1, 1), max_size=3), max_size=3)
         | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
         | st.lists(st.text(max_size=2), max_size=3))
_VARIANTS = ("absent", "arc", "segment", "Segment", "", None, 1, ["arc"])


@st.composite
def instance_payloads(draw):
    if draw(st.integers(0, 19)) == 0:  # not an object at all
        return draw(_JUNK)
    dim = draw(st.integers(1, 5))
    base = draw(arrays(np.float64, (4, dim), elements=st.floats(-2.0, 2.0)))
    payload = {}
    for index, key in enumerate(_KEYS):
        kind = draw(st.sampled_from(_FIELD_KINDS))
        row, partner = base[index], base[index ^ 1]
        if kind == "missing":
            continue
        if kind == "junk":
            payload[key] = draw(_JUNK)
            continue
        value = {
            "keep": row,
            "zero": np.zeros(dim),
            "antiparallel": -partner,
            "duplicate": partner,
            "longer": np.append(row, 0.5),
            "shorter": row[:-1],
            "non_finite": np.where(np.arange(dim) == 0,
                                   draw(st.sampled_from([np.nan, np.inf, -np.inf])), row),
            "huge": row * 1e300,
            "tiny": row * 1e-300,
        }[kind]
        payload[key] = value.tolist()
    variant = draw(st.sampled_from(_VARIANTS))
    if variant != "absent":
        payload["variant"] = variant
    return payload


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _check_solved(command, out):
    if command == "cases":
        root = ET.fromstring(out)
        winner = [el.text for el in root.iter() if (el.text or "").startswith("winner")]
        assert "nan" not in winner[0] and "inf" not in winner[0]
        return
    payload = json.loads(out)
    if command == "solve":
        assert _finite([payload["distance"]]) and _finite(payload["p1"] + payload["p2"])
        if payload["variant"] == "arc":  # optimal points lie on the sphere
            norms = np.linalg.norm([payload["p1"], payload["p2"]], axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-9)
    else:
        assert _finite([payload["best_distance"], *payload["best_params"]])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=instance_payloads())
def test_fuzz_instance_commands(tmp_path, payload):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    for argv in (["solve"], ["oracle", "--resolution", "0.05"], ["cases"]):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = main([*argv, str(path)])
        out = buf.getvalue()
        assert code in (0, 2), (argv, payload, out)
        if code == 2:
            error = json.loads(out)
            assert set(error) == {"error", "message"}
        else:
            _check_solved(argv[0], out)


# Fuzzing `experiment`. A tiny config (at most 2 steps) has each field kept,
# dropped or replaced by a random JSON value; a call must exit 0, or 2 with a
# JSON error and no manifest, and never raise.
_TINY_SPEC = {"num_classes": 3, "samples_per_class": 2, "dimension": 4,
              "concentration": 2.5, "seed": 0}
_TINY_LOSS_CONFIG = {"margin": 0.2, "ms_epsilon": 0.1, "ms_margin": 0.5, "ms_alpha": 2.0,
                     "ms_beta": 50.0, "normalization": "terms"}
_JSON_VALUES = (
    st.text(max_size=4) | st.booleans() | st.none()
    | st.recursive(st.integers(-3, 3) | st.text(max_size=2), st.lists, max_leaves=4)
    | st.sampled_from([1e300, -1e300, 1e20, 2**63, 10**30, -(10**30)])
    | st.integers(-5, -1) | st.floats(-10.0, -1e-6)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)


def _fuzz_fields(draw, base):
    fields = {}
    for key, value in base.items():
        kind = draw(st.sampled_from(("keep",) * 6 + ("drop", "replace")))
        if kind == "keep":
            fields[key] = value
        elif kind == "replace":
            fields[key] = draw(_JSON_VALUES)
    return fields


@st.composite
def experiment_configs(draw):
    base = {
        "spec": _fuzz_fields(draw, _TINY_SPEC),
        "losses": draw(st.lists(st.sampled_from(sorted(LOSS_REGISTRY)), min_size=1,
                                max_size=2)),
        "loss_config": _fuzz_fields(draw, _TINY_LOSS_CONFIG),
        "steps": draw(st.integers(0, 2)),
        "learning_rate": 0.05,
        "seeds": draw(st.sampled_from([[0], [1], [0, 1]])),
        "variant": draw(st.sampled_from(("arc", "segment"))),
    }
    return _fuzz_fields(draw, base)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=experiment_configs())
def test_fuzz_experiment_command(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("fuzz")
    config, out_dir = tmp / "config.json", tmp / "out"
    config.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(["experiment", str(config), "--out-dir", str(out_dir)])
    out = buf.getvalue()
    assert code in (0, 2), (payload, out)
    if code == 2:
        assert set(json.loads(out)) == {"error", "message"}
        assert not (out_dir / "manifest.json").exists()
    else:
        summary = json.loads(out)
        assert all(math.isfinite(run["final_loss"]) for run in summary["runs"])
