import contextlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrixwell import TimeGrid, WellConfig, build_momentum, build_position, cli, dynamics, operators, revival_time
from matrixwell.cli import OPTIONS, SCENARIOS, RunConfig, main, parse_config, run
from matrixwell.errors import ConfigError
from matrixwell.operators import _parity_blocks
from matrixwell.reports import render_csv, render_json

SI_ELECTRON = (1e-9, 9.1093837015e-31, 1.054571817e-34)  # L, m, hbar

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, out: Path | None = None, fmt: str | None = None):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    if fmt is not None:
        argv += ["--format", fmt]
    return main(argv)


class TestParseConfig:
    def test_defaults_are_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="matrixwell"):
            rc = parse_config(["elements"])
        assert rc.well.L == 1.0
        assert rc.well.N == 100
        notices = [r.message for r in caplog.records]
        assert any("L not specified" in m for m in notices)

    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("N = 16\nL = 2.0\n", encoding="utf-8")
        rc = parse_config(["elements", "--config", str(cfgfile), "--N", "8"])
        assert rc.well.N == 8  # flag wins
        assert rc.well.L == 2.0  # file value survives

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_config_file_with_byte_order_mark(self, tmp_path, fmt):
        # the mark is not part of the first key ('\ufeffN' is no option)
        text = "N = 8\nL = 2.0\n"
        reports = []
        for name, raw in (("plain", text.encode("utf-8")), ("bom", b"\xef\xbb\xbf" + text.encode("utf-8"))):
            (tmp_path / name).mkdir()
            cfgfile, out = tmp_path / name / "run.cfg", tmp_path / name / "report.dat"
            cfgfile.write_bytes(raw)
            assert run_cli(["commutator", "--config", str(cfgfile)], out=out, fmt=fmt) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert parse_config(["commutator", "--config", str(tmp_path / "bom" / "run.cfg")]).well.N == 8

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("wibble = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(["elements", "--config", str(cfgfile)])
        assert err.value.field == "wibble"

    def test_malformed_number_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("N = lots\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(["elements", "--config", str(cfgfile)])
        assert err.value.field == "N"

    def test_spread_requires_state(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["spread"])
        assert err.value.field == "state"

    def test_commutator_block_requirement(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["commutator", "--N", "20", "--block", "10"])
        assert err.value.field == "block"

    def test_nonpositive_physical_parameter(self):
        with pytest.raises(ConfigError):
            parse_config(["elements", "--L", "-2"])

    @pytest.mark.parametrize(
        "args, unread",
        [
            # the mass enters only through H: x and p/i hold L and hbar alone
            (["elements", "--N", "4"], ["--m", "1e-320"]),
            (["commutator", "--N", "8", "--L", "1e5"], ["--m", "1e300"]),
            # 4 m L^2 would overflow in a revival time that elements never forms
            (["elements", "--N", "6", "--L", "1e200"], []),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scales_a_report_does_not_form_are_not_checked(self, args, unread, fmt, tmp_path):
        with_unread, without = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run_cli([*args, *unread], out=with_unread, fmt=fmt) == 0
        assert run_cli(args, out=without, fmt=fmt) == 0
        assert with_unread.read_bytes() == without.read_bytes()

    def test_fermion_cutoff_is_forced_to_one(self):
        rc = parse_config(["fock-algebra", "--statistics", "fermion", "--cutoff", "7"])
        assert rc.options["cutoff"] == 1

    def test_boson_particles_respect_cutoff(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["fock-density", "--particles", "9", "--cutoff", "4"])
        assert err.value.field == "particles"


# a value for every OPTIONS row that each scenario reading it accepts and
# that differs from the row's default
SAMPLES = {
    "L": "2.5", "m": "0.5", "hbar": "1.5", "N": "64", "t-start": "0.25", "t-end": "0.75",
    "steps": "7", "format": "json", "state": "eigen:2", "block": "3", "modes": "2",
    "statistics": "fermion", "cutoff": "3", "particles": "1", "positions": "9", "t": "0.5",
    "out": "report.txt",
}


# Values to perturb one option at a time: each base run writes JSON, so a perturbed format writes
# CSV; the options that cannot change a fock-density report get a second value.
PERTURBATIONS = {key: (value,) for key, value in SAMPLES.items()} | {
    "format": ("csv",), "modes": ("2", "5"), "cutoff": ("3", "6"), "t": ("0.5", "-2"),
}
PERTURBATION_BASES = {
    "elements": ["elements", "--N", "8"],
    "commutator": ["commutator", "--N", "32"],
    "evolve": ["evolve", "--N", "16", "--steps", "5"],
    "spread": ["spread", "--N", "32", "--state", "modes:1,2", "--steps", "5"],
    "ehrenfest": ["ehrenfest", "--N", "32", "--state", "modes:1,2", "--steps", "5"],
    "revival": ["revival", "--N", "32"],
    "fock-density": ["fock-density", "--positions", "5"],
    "fock-algebra": ["fock-algebra"],
}
# fock-density reads these, but they cannot change its report: it builds only occupation eigenstates,
# whose one-body density is diagonal, so t, m and hbar drop out (the FOUND entry in CHANGES.md on
# fock-density's --t, --m and --hbar), and the state fills the lowest modes whatever M and the cutoff,
# which only bound particles.
FOCK_DENSITY_DEAD_READS = ("t", "m", "hbar", "modes", "cutoff")


class TestOptionTable:
    def test_every_row_has_a_sample(self):
        assert sorted(SAMPLES) == sorted(opt.key for opt in OPTIONS)

    @pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.key)
    def test_flag_and_config_file_forms_agree(self, opt, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{opt.key} = {SAMPLES[opt.key]}\n", encoding="utf-8")
        for scenario in SCENARIOS:
            base = [scenario]
            if scenario in ("spread", "ehrenfest") and opt.key != "state":
                base += ["--state", "eigen:1"]
            flag = parse_config(base + [f"--{opt.key}", SAMPLES[opt.key]])
            if opt.key in SCENARIOS[scenario][0]:
                assert flag == parse_config(base + ["--config", str(cfgfile)]), scenario
                if opt.key != "state" or scenario == "revival":
                    assert flag != parse_config(base), scenario
            else:  # ignored: neither read, checked nor echoed
                assert flag == parse_config(base), scenario

    def test_every_option_reaches_a_run_and_the_echo(self, tmp_path):
        """No dead knobs: each option a scenario lists is read by its run, from `options` or through
        the well or grid built from it, every option by some scenario, and a JSON report echoes
        exactly the options its scenario lists, but the output path."""
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        class Watched(RunConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        keys = {opt.key for opt in OPTIONS}
        read_somewhere = set()
        for scenario in SCENARIOS:
            out = tmp_path / f"{scenario}.json"
            argv = [scenario, "--N", "64", "--state", "eigen:1", "--format", "json", "--out", str(out)]
            fields = vars(parse_config(argv))
            options, well = fields["options"], fields["well"]
            read.clear()
            assert run(Watched(**{**fields, "options": Recording(options)})) == 0
            if "well" in read:
                read |= {key for key in ("L", "m", "hbar", "N") if options.get(key) == getattr(well, key)}
            if "grid" in read:
                read |= {"t-start", "t-end", "steps"}
                assert fields["grid"] == TimeGrid(options["t-start"], options["t-end"], options["steps"])
            listed = set(SCENARIOS[scenario][0])
            assert read & keys == listed, scenario
            echo = json.loads(out.read_text())["config"]
            assert set(echo) == {"scenario"} | {key.replace("-", "_") for key in listed - {"out"}}, scenario
            read_somewhere |= read & keys
        assert read_somewhere == keys

    @pytest.mark.parametrize("scenario", tuple(SCENARIOS))
    def test_every_read_option_can_change_the_report(self, scenario, tmp_path):
        """Each option a scenario reads, but the output path, has a valid value that changes its report
        (JSON `config` removed), except FOCK_DENSITY_DEAD_READS, which change nothing."""

        def report(*flags):
            out = tmp_path / "report"
            assert run_cli([*PERTURBATION_BASES[scenario], "--format", "json", *flags], out=out) == 0
            text = out.read_text()
            if text.startswith("{"):
                doc = json.loads(text)
                del doc["config"]
                return doc
            return text

        base = report()
        dead = FOCK_DENSITY_DEAD_READS if scenario == "fock-density" else ()
        for key in SCENARIOS[scenario][0]:
            if key == "out":
                continue
            changed = [report(f"--{key}", value) != base for value in PERTURBATIONS[key]]
            assert any(changed) != (key in dead), (scenario, key)

    def test_help_lists_every_option_with_default_and_scenarios(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for opt in OPTIONS:
            start = text.index(f"--{opt.key} ", text.index("options:"))
            entry = text[start : text.find(" --", start + 1)]
            if opt.default is not None:
                assert f"default {opt.default}" in entry, opt.key
            readers = [name for name, (reads, _, _) in SCENARIOS.items() if opt.key in reads]
            where = ["all scenarios"] if len(readers) == len(SCENARIOS) else readers
            assert all(name in entry for name in where), opt.key

    @pytest.mark.parametrize(
        "scenario, key, raw",
        [
            ("elements", "N", "lots"),
            ("elements", "N", "2.5"),
            ("elements", "N", "1"),
            ("elements", "L", "-2"),
            ("elements", "format", "xml"),
            ("fock-algebra", "statistics", "x"),
            ("fock-algebra", "cutoff", "0"),
            ("commutator", "block", "0"),
            ("commutator", "block", "-3"),
            ("commutator", "N", "3"),
            ("commutator", "N", "2"),
            # well scales that are not finite, or whose revival time or omega_1 is not
            ("elements", "L", "inf"),
            ("elements", "L", "nan"),
            ("evolve", "L", "1e200"),
            ("evolve", "L", "1e-200"),
            ("evolve", "m", "1e308"),
            ("evolve", "m", "1e-320"),
            ("elements", "hbar", "inf"),
            ("evolve", "hbar", "1e308"),
            ("evolve", "hbar", "1e-320"),
            # negative values in exponent form: only a word that starts with -- is a flag
            ("elements", "L", "-2e0"),
            ("evolve", "t-start", "-inf"),
            # a non-finite grid start, checked before the order of the grid ends
            ("evolve", "t-start", "nan"),
            ("evolve", "t-start", "inf"),
            # report tables above the dense-matrix byte cap; never run
            ("evolve", "steps", "1000000000"),
            ("spread", "steps", "1000000000"),
            ("ehrenfest", "steps", "1000000000"),
            ("fock-density", "positions", "1000000000"),
            # grid spacings at which np.gradient's d<x>/dt or d<p>/dt would overflow; the other
            # options of a row follow its scenario, and are given in the same form as the key
            pytest.param("spread --N 20 --state eigen:1 --steps 3", "t-end", "1e-320", id="spread-t-end-1e-320"),
            pytest.param(
                "ehrenfest --N 50 --state gaussian:center=0.4,width=0.05,momentum=10 --steps 5", "t-end", "1e-310",
                id="ehrenfest-t-end-1e-310",
            ),
            pytest.param(
                "ehrenfest --N 50 --state gaussian:center=0.4,width=0.05,momentum=10 --steps 5", "t-end", "2e-307",
                id="ehrenfest-t-end-2e-307",
            ),
            # a grid whose spacing rounds to zero
            pytest.param("ehrenfest --N 20 --state eigen:1 --steps 30", "t-end", "5e-324", id="ehrenfest-t-end-5e-324"),
            # state specs that name a gaussian key or a mode twice
            pytest.param(
                "spread --N 20", "state", "gaussian:center=0.5,width=0.05,center=0.6", id="spread-state-center-twice"
            ),
            pytest.param("spread --N 20", "state", "modes:1,1", id="spread-state-mode-twice"),
            # gaussian specs with a misspelt key or without a width
            pytest.param("spread --N 20", "state", "gaussian:center=0.5,wdth=0.05", id="spread-state-unknown-key"),
            pytest.param("spread --N 20", "state", "gaussian:center=0.5", id="spread-state-no-width"),
            # Fock bases of at least 2^modes states, refused before (cutoff+1)^modes is formed
            pytest.param("fock-algebra --N 3000000 --cutoff 1000000", "modes", "3000000", id="fock-algebra-modes-3e6"),
            pytest.param(
                "fock-algebra --N 100000 --statistics fermion", "modes", "100000", id="fock-algebra-fermion-modes-1e5"
            ),
            # Fock bases whose modes alone stay under the cap and whose cutoff breaks it
            pytest.param("fock-algebra --modes 1", "cutoff", "40000", id="fock-algebra-cutoff-40000"),
            pytest.param("fock-density --modes 3", "cutoff", "40", id="fock-density-cutoff-40"),
            # scales at which p/i or the [x, p] diagonal overflows; blamed on the scale farthest from 1
            pytest.param("elements --N 64", "hbar", "1e307", id="elements-hbar-1e307"),
            pytest.param("commutator --N 64", "hbar", "1e307", id="commutator-hbar-1e307"),
            pytest.param("elements --N 64 --hbar 1e160 --m 1e299", "L", "1e-150", id="elements-L-1e-150"),
            pytest.param("commutator --N 64 --hbar 1e160 --m 1e299", "L", "1e-150", id="commutator-L-1e-150"),
            # scales at which a p/i entry underflows to 0, and [x, p] with it
            pytest.param("elements --N 2 --L 1e30 --m 1e-200", "hbar", "1e-300", id="elements-hbar-1e-300"),
            pytest.param("commutator --N 8 --block 1 --L 1e30 --m 1e-200", "hbar", "1e-300", id="commutator-hbar-1e-300"),
            # scales at which the wall force or <p^2> leaves the float range, and a time at which
            # hbar |t| / 2m does; the scales are blamed on the one farthest from 1
            pytest.param(
                "spread --N 64 --m 1e100 --t-end 1 --steps 3 --state eigen:1", "L", "1e-160", id="spread-L-1e-160"
            ),
            pytest.param(
                "spread --N 20 --hbar 1e10 --L 1e3 --steps 3 --state eigen:1", "t-end", "1e300", id="spread-t-end-1e300"
            ),
            pytest.param("spread --N 20 --m 1e190 --state eigen:1 --steps 5", "hbar", "1e200", id="spread-hbar-1e200"),
            # grid ends at which float64 resolves the phases N^2 omega_1 t no better than 1e-6 rad
            pytest.param(
                "ehrenfest --N 20 --state eigen:1 --t-end 1.000000000000001e15 --steps 3", "t-start", "1e15",
                id="ehrenfest-t-start-1e15",
            ),
            pytest.param("evolve --N 200", "t-end", "1e6", id="evolve-t-end-1e6"),
            pytest.param("spread --N 64 --state eigen:1 --steps 3", "t-end", "1e7", id="spread-t-end-1e7"),
            pytest.param("evolve --N 100 --t-end 0", "t-start", "-1e6", id="evolve-t-start-minus-1e6"),
            # sizes beyond the float range, checked in integers before any magnitude is formed; each
            # once ended in an OverflowError, or named a scale that is 1
            pytest.param("evolve", "steps", "1" + "0" * 400, id="evolve-steps-1e400"),
            pytest.param("spread --state eigen:1", "steps", "1" + "0" * 400, id="spread-steps-1e400"),
            pytest.param("fock-density", "positions", "1" + "0" * 400, id="fock-density-positions-1e400"),
            pytest.param("evolve", "N", "1" + "0" * 157, id="evolve-N-1e157"),
            pytest.param("revival", "N", "1" + "0" * 157, id="revival-N-1e157"),
            pytest.param("elements", "N", "1" + "0" * 157, id="elements-N-1e157"),
        ],
    )
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_bad_value_names_its_key(self, scenario, key, raw, form, tmp_path, capsys):
        scenario, *others = scenario.split()
        given = [*zip(others[::2], others[1::2]), (f"--{key}", raw)]
        if form == "flag":
            argv = [scenario, *(word for pair in given for word in pair)]
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in given), encoding="utf-8")
            argv = [scenario, "--config", str(cfgfile)]
        assert main(argv) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == key

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["elements", "--foo", "1"], "foo"),
            (["elements", "--N"], "N"),
            (["elements", "--N", "--L", "2"], "N"),
            (["elements", "--form", "json"], "form"),  # no abbreviations: a config file has none either
            (["elements", "extra"], "scenario"),
            (["--N", "8"], "scenario"),
            ([], "scenario"),
            (["elements", "--config", "latin1.cfg"], "config"),  # a config file that is not UTF-8
        ],
    )
    def test_bad_argv_names_its_field(self, argv, field, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.cfg"
        cfgfile.write_bytes("# café\nN = 4\n".encode("latin-1"))
        argv = [str(cfgfile) if word == cfgfile.name else word for word in argv]
        assert main(argv) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == field

    def test_both_flag_forms_agree(self):
        assert parse_config(["--N=8", "elements", "--t=-inf", "--L=-0.0e0", "--L=2"]) == parse_config(
            ["--N", "8", "elements", "--L", "2"]
        )

    def test_negative_exponent_value_is_a_value(self):
        rc = parse_config(["evolve", "--N", "4", "--t-start", "-4.5e-05", "--steps", "3"])
        assert rc.grid.t_start == -4.5e-05
        assert run(rc) == 0
        with pytest.raises(ConfigError) as err:  # a flag is never taken as the value before it
            parse_config(["elements", "--out", "--format", "json"])
        assert err.value.field == "out"

    @pytest.mark.parametrize("scenario", ["elements", "commutator", "revival", "fock-density", "fock-algebra"])
    def test_scenarios_without_a_grid_ignore_grid_options(self, scenario):
        # values each grid scenario would refuse: steps below 2, a non-finite end, an end before the start
        base = [scenario, "--N", "8"]
        for grid in (["--steps", "1"], ["--t-end", "nan"], ["--t-start", "5", "--t-end", "1"]):
            rc = parse_config(base + grid)
            assert rc == parse_config(base)
            assert rc.grid is None
            assert not {"t_start", "t_end", "steps"} & set(rc.echo)

    @pytest.mark.parametrize(
        "args", [["--cutoff", "1"], ["--statistics", "fermion", "--modes", "1"]]
    )
    def test_density_options_scoped_to_fock_density(self, args, tmp_path, capsys):
        # the default particles=2 does not fit either basis; only fock-density reads it
        out = tmp_path / "alg.json"
        assert run_cli(["fock-algebra", *args], out=out, fmt="json") == 0
        config = json.loads(out.read_text())["config"]
        assert not {"particles", "positions", "t", "state"} & set(config)
        assert run_cli(["fock-density", *args]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["field"] == "particles"


class TestScenarioOutputs:
    def test_elements_csv_for_two_modes(self, tmp_path):
        out = tmp_path / "elements.csv"
        assert run_cli(["elements", "--N", "2"], out=out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,l,x,p_re,p_im"
        a = -16.0 / (9.0 * math.pi**2)
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert float(rows[0][2]) == pytest.approx(0.5)
        assert float(rows[1][2]) == pytest.approx(a, abs=1e-12)
        assert float(rows[1][4]) == pytest.approx(8.0 / 3.0, abs=1e-11)
        assert float(rows[2][4]) == pytest.approx(-8.0 / 3.0, abs=1e-11)

    def test_revival_json_values(self, tmp_path):
        out = tmp_path / "revival.json"
        assert run_cli(["revival", "--N", "60"], out=out, fmt="json") == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["scenario"] == "revival"
        assert doc["config"]["state"] == "gaussian:center=0.5,width=0.05"  # the worked-out default
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["t_r"] == pytest.approx(4.0 / math.pi, rel=1e-15)
        assert row["max_position_change"] < 1e-12
        assert row["dx_gap"] < 1e-9

    def test_fock_algebra_fermions_report_zero_defect(self, tmp_path):
        out = tmp_path / "alg.csv"
        assert run_cli(["fock-algebra", "--statistics", "fermion", "--modes", "3"], out=out) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["statistics"] == "fermion"
        assert float(row["same_mode_defect"]) == 0.0
        assert float(row["cross_mode_defect"]) == 0.0

    def test_fock_algebra_at_the_basis_cap_without_dense_matrices(self, tmp_path):
        # 2^15 states: one dense annihilator alone would need 16 GiB
        out = tmp_path / "alg.csv"
        assert run_cli(["fock-algebra", "--statistics", "fermion", "--modes", "15"], out=out) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        for key in ("same_mode_defect", "boundary_error", "cross_mode_defect", "pair_defect"):
            assert float(row[key]) == 0.0

    def test_fock_density_integral_diagnostic(self, tmp_path):
        out = tmp_path / "density.json"
        code = run_cli(
            ["fock-density", "--modes", "2", "--cutoff", "3", "--particles", "3", "--positions", "9"],
            out=out,
            fmt="json",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["diagnostics"]["density_integral"] == pytest.approx(3.0, abs=1e-6)

    def test_fock_density_integral_follows_modes_not_n(self, tmp_path):
        # the density of M modes is integrated on the M-mode rule; the N-mode
        # rule peaked at 139 MiB here
        out = tmp_path / "density.json"
        tracemalloc.start()
        try:
            rc = parse_config(
                ["fock-density", "--statistics", "fermion", "--modes", "6", "--particles", "3",
                 "--N", "20000", "--format", "json", "--out", str(out)]
            )
            assert run(rc) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        doc = json.loads(out.read_text())
        assert abs(doc["diagnostics"]["density_integral"] - 3.0) <= 1e-12

    def test_stdout_when_no_output_path(self, capsys):
        assert run_cli(["commutator", "--N", "40", "--block", "4"]) == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0].startswith("n,block,interior_max_deviation")

    def test_spread_runs_with_gaussian_state(self, tmp_path):
        out = tmp_path / "spread.csv"
        code = run_cli(
            ["spread", "--N", "80", "--state", "gaussian:center=0.5,width=0.06", "--steps", "11"],
            out=out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 12

    def test_fock_density_of_the_fermi_sea(self, tmp_path):
        # the lowest `particles` modes filled once each: the density is the sum of their |psi_n|^2
        out = tmp_path / "sea.json"
        args = ["fock-density", "--statistics", "fermion", "--modes", "4", "--particles", "3", "--t", "0.3"]
        assert run_cli(args + ["--positions", "9"], out=out, fmt="json") == 0
        doc = json.loads(out.read_text())
        xs, density = np.array(doc["rows"]).T
        expect = 2.0 * sum(np.sin(n * np.pi * xs) ** 2 for n in (1, 2, 3))
        np.testing.assert_allclose(density, expect, atol=1e-12)

    def test_ehrenfest_runs_with_mode_state(self, tmp_path):
        out = tmp_path / "ehr.csv"
        code = run_cli(
            ["ehrenfest", "--N", "40", "--state", "modes:1,2", "--steps", "21", "--t-end", "0.5"],
            out=out,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 22


@pytest.mark.parametrize(
    "args",
    [
        ["spread", "--steps", "21", "--state", "gaussian:center=0.5,width=0.05"],
        ["spread", "--steps", "21", "--state", "modes:1,4,7"],
        ["ehrenfest", "--steps", "21", "--state", "gaussian:center=0.4,width=0.05,momentum=30"],
        ["revival", "--state", "gaussian:center=0.5,width=0.05"],
    ],
)
def test_series_scenarios_skip_the_complex_builders(args, monkeypatch, tmp_path):
    """The series engine fills the real x and p/i itself; no dense complex copy is built."""

    def refuse(cfg):
        raise AssertionError("a dense complex builder was called")

    for module in (operators, dynamics):
        monkeypatch.setattr(module, "build_position", refuse)
        monkeypatch.setattr(module, "build_momentum", refuse)
    assert run_cli([*args, "--N", "100"], out=tmp_path / "report.csv") == 0


# a state for the scenarios that need one
STATES = {"spread": "modes:1,2", "ehrenfest": "gaussian:center=0.4,width=0.1"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_no_scenario_forms_a_dense_operator(scenario, fmt, monkeypatch, tmp_path):
    """No CLI path builds x or p, multiplies operators (P @ P) or wraps any N x N matrix as an
    OperatorMatrix: its energies and p^2 moments come from the diagonal H, the parity blocks and ||P C||^2."""

    def refuse(*args):
        raise AssertionError("a dense operator was formed")

    for module in (operators, dynamics):
        monkeypatch.setattr(module, "build_position", refuse)
        monkeypatch.setattr(module, "build_momentum", refuse)
    monkeypatch.setattr(operators.OperatorMatrix, "__matmul__", refuse)
    monkeypatch.setattr(operators.OperatorMatrix, "__post_init__", refuse)
    state = ["--state", STATES[scenario]] if scenario in STATES else []
    assert run_cli([scenario, "--N", "12", *state], out=tmp_path / "report", fmt=fmt) == 0


class TestDeterminismAndRoundTrip:
    @pytest.mark.parametrize(
        "args",
        [
            ["elements", "--N", "6"],
            ["commutator", "--N", "48", "--block", "5"],
            ["evolve", "--N", "16", "--steps", "7"],
            ["revival", "--N", "32"],
            ["spread", "--N", "32", "--state", "modes:1,2", "--steps", "9"],
            ["ehrenfest", "--N", "32", "--state", "eigen:2", "--steps", "9"],
            ["fock-density", "--modes", "2", "--cutoff", "2", "--particles", "1", "--positions", "7"],
            ["fock-algebra", "--modes", "3", "--cutoff", "2"],
            ["commutator", "--N", "37", "--block", "1"],
            ["fock-density", "--modes", "4", "--statistics", "fermion", "--particles", "2", "--positions", "9"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_identical_config_gives_identical_bytes(self, tmp_path, args, fmt):
        out1, out2 = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run_cli(args, out=out1, fmt=fmt) == 0
        assert run_cli(args, out=out2, fmt=fmt) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_elements_bytes_match_the_complex_builders(self, tmp_path, fmt):
        # the report once took x, Re p and Im p from the two complex N x N builders
        args = ["elements", "--N", "9", "--L", "1.3", "--hbar", "0.7"]
        out = tmp_path / "elements.dat"
        assert run_cli(args, out=out, fmt=fmt) == 0
        rc = parse_config([*args, "--format", fmt])
        x, p = build_position(rc.well).entries, build_momentum(rc.well).entries
        k, l = np.indices(x.shape) + 1
        names = ["k", "l", "x", "p_re", "p_im"]
        columns = [k.ravel(), l.ravel(), x.real.ravel(), p.real.ravel(), p.imag.ravel()]
        if fmt == "csv":
            want = render_csv(names, columns)
        else:
            want = render_json(rc.echo, names, columns, {"dim": 9})
        assert out.read_text(encoding="utf-8") == want

    def test_json_round_trip_reproduces_rows(self, tmp_path):
        out = tmp_path / "spread.json"
        rc = parse_config(
            ["spread", "--N", "48", "--state", "modes:1,2", "--steps", "9", "--t-end", "0.8",
             "--out", str(out), "--format", "json"]
        )
        from matrixwell.dynamics import TimeGrid, spread_report
        from matrixwell.cli import _build_state

        report = spread_report(_build_state(rc), rc.well, rc.grid)
        assert run(rc) == 0
        doc = json.loads(out.read_text())
        parsed = np.array(doc["rows"], dtype=float)
        np.testing.assert_array_equal(parsed, report.data)  # 17 digits round-trips exactly
        assert doc["columns"] == list(report.COLUMNS)
        assert doc["config"]["N"] == 48

    def test_cli_subprocess_end_to_end(self, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        env = dict(os.environ, PYTHONPATH=SRC)
        for out in (out1, out2):
            proc = subprocess.run(
                [sys.executable, "-m", "matrixwell", "revival", "--N", "24",
                 "--format", "json", "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()


class TestFailureModes:
    def test_config_error_exit_code_and_diagnostic(self, capsys):
        code = run_cli(["spread", "--N", "20"])
        assert code == 2
        err = capsys.readouterr().err
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["field"] == "state"

    def test_failed_run_leaves_no_partial_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(
            ["spread", "--N", "4", "--state", "gaussian:center=0.5,width=0.01"], out=out
        )
        assert code == 2  # packet needs far more modes than N=4
        assert not out.exists()
        assert not out.with_name(out.name + ".tmp").exists()

    ROWS = 3 * 2**15  # several blocks of rows, so a streamed report could write the first before the last is seen
    BAD_TABLES = {
        "nan-in-last-column": (["a", "b"], [np.arange(ROWS, dtype=float), np.r_[np.ones(ROWS - 1), np.nan]], {}),
        "nan-in-diagnostics": (["a", "b"], [np.arange(ROWS, dtype=float), np.ones(ROWS)], {"integral": math.nan}),
        "ragged-columns": (["a", "b"], [np.arange(ROWS, dtype=float), np.ones(ROWS - 1)], {}),
    }

    @pytest.mark.parametrize("sink", ["stdout", "out"])
    @pytest.mark.parametrize(
        "bad, fmt",
        [(bad, fmt) for bad in BAD_TABLES for fmt in ("csv", "json") if (bad, fmt) != ("nan-in-diagnostics", "csv")],
    )
    def test_refused_report_writes_nothing(self, bad, fmt, sink, monkeypatch, tmp_path, capsys):
        """Every check of a report runs before its first byte; CSV has no diagnostics to refuse."""
        reads, _, table = SCENARIOS["commutator"]
        monkeypatch.setitem(SCENARIOS, "commutator", (reads, lambda rc: self.BAD_TABLES[bad], table))
        out = tmp_path / "report.dat"
        argv = ["commutator", "--N", "8", "--format", fmt] + (["--out", str(out)] if sink == "out" else [])
        with pytest.raises(ValueError, match="NaN or infinities|differ in length"):
            run(parse_config(argv))
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_pipe_is_an_io_error(self):
        """A reader that stops early cuts the report short: exit 1 with the io diagnostic alone on stderr,
        no traceback and no 'Exception ignored' from the flush at exit."""
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = ["elements", "--N", "600", "--L", "1", "--m", "1", "--hbar", "1"]  # about 25 MB of CSV
        proc = subprocess.Popen([sys.executable, "-m", "matrixwell", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"k,l,x,p_re,p_im\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err.decode().splitlines() == ['{"error": "[Errno 32] Broken pipe", "kind": "io"}']

    def test_config_line_without_equals_refused(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("N 4\n", encoding="utf-8")
        assert main(["elements", "--config", str(cfgfile)]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == "config"

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["elements", "--N", "4", "--out", str(out)]) == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "kind"}
        assert diag["kind"] == "io"
        assert not out.with_name(out.name + ".tmp").exists()

    def test_output_onto_a_directory_is_an_io_error(self, tmp_path, capsys):
        # the temporary file is written, the rename onto the directory fails, and it is removed
        out = tmp_path / "report"
        out.mkdir()
        (out / "kept.txt").write_text("kept", encoding="utf-8")
        assert main(["elements", "--N", "4", "--out", str(out)]) == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "kind"}
        assert diag["kind"] == "io"
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text(encoding="utf-8") == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["warp-drive"]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == "scenario"

    def test_bad_state_spec_names_field(self, capsys):
        code = run_cli(["spread", "--N", "20", "--state", "plane-wave:7"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["field"] == "state"

    @pytest.mark.parametrize(
        "packet, scale, expect",
        [
            ("center=0.5,width=0.05,momentum=inf", [], "packet momentum"),
            ("center=0.5,width=0.05,momentum=nan", [], "packet momentum"),
            ("center=0.5,width=0.05,momentum=1e308", [], "packet momentum"),  # over hbar 0.5
            ("center=0.5,width=1e-300", [], "packet width"),
            ("center=0.5,width=1e-160", [], "packet width"),
            ("center=5e9,width=1e-150", ["--L", "1e10"], "zero norm"),  # the exponent passes -1e308
        ],
    )
    def test_unsampleable_packet_refused_without_a_warning(self, packet, scale, expect, capsys):
        argv = ["spread", "--N", "50", "--steps", "5", "--hbar", "0.5", *scale, "--state", f"gaussian:{packet}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["field"] == "state"
        assert expect in diag["error"]

    @pytest.mark.parametrize("n, spacing", [(50, "0.015625"), (200, "0.005")])
    def test_packet_too_narrow_for_every_node_names_its_width(self, n, spacing, capsys):
        """Every quadrature node lies many widths from the centre, so every sample is 0: the
        refusal names the width against the rule's panel spacing, L / max(64, N) at L = 1."""
        assert main(["spread", "--N", str(n), "--state", "gaussian:center=0.5,width=1e-10"]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["field"] == "state"
        assert f"width 1e-10 lies far below the rule's panel spacing {spacing}" in diag["error"]

    @pytest.mark.parametrize("scenario", ["spread", "ehrenfest"])
    def test_two_steps_refused_for_series(self, scenario, capsys):
        code = run_cli([scenario, "--N", "20", "--state", "eigen:1", "--steps", "2"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == "steps"

    def test_single_particle_size_cap_refused_before_allocating(self):
        # one dense complex 4097 x 4097 matrix needs 256.1 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                parse_config(["elements", "--N", "4097"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.field == "N"
        assert peak < 4 * 2**20
        assert parse_config(["elements", "--N", "4096"]).well.N == 4096
        # the Fock runs do not read N: fock-algebra has no well, and fock-density's has N = max(2, M)
        assert parse_config(["fock-algebra", "--N", "5000"]).well is None
        assert parse_config(["fock-density", "--N", "1" + "0" * 200]).well.N == 3
        # fock-density forms its phases from its M modes: N^2 omega_1 t would leave the float range
        assert parse_config(["fock-density", "--N", "4096", "--t", "1e302"]).options["t"] == 1e302

    @pytest.mark.parametrize(
        "scenario, key, most",
        [
            ("evolve", "steps", 2**28 // (8 * 4)),
            ("spread", "steps", 2**28 // (8 * 10)),
            ("ehrenfest", "steps", 2**28 // (8 * 10)),
            ("fock-density", "positions", 2**28 // (8 * 2)),
        ],
    )
    def test_report_table_size_cap_refused_before_allocating(self, scenario, key, most):
        # rows x columns x 8 B of the report table against the 256 MiB cap; parsed only
        base = [scenario, "--N", "8", "--state", "eigen:1"]
        assert parse_config(base + [f"--{key}", str(most)]).options[key] == most
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                parse_config(base + [f"--{key}", str(most + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.field == key
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "args",
        [
            ["commutator", "--N", "100000"],
            ["evolve", "--N", "4097"],
            ["revival", "--N", "4097"],
            ["spread", "--N", "4097", "--state", "eigen:1"],
        ],
    )
    def test_oversized_n_refused_for_every_single_particle_scenario(self, args):
        with pytest.raises(ConfigError) as err:
            parse_config(args)
        assert err.value.field == "N"

    def test_state_on_the_truncation_edge_refused(self, capsys):
        # at N=50 the truncated p gives dp = 108.16 for eigen:50, not 50 pi hbar / L = 157.08
        assert run_cli(["spread", "--state", "eigen:50", "--N", "50"]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == "state"

    @pytest.mark.parametrize(
        "spec, refused",
        [("eigen:37", False), ("eigen:38", True), ("modes:1,37", False), ("modes:38,1", True)],
    )
    def test_states_above_three_quarters_of_n_refused(self, spec, refused):
        from matrixwell.cli import _build_state

        rc = parse_config(["spread", "--N", "50", "--state", spec])
        if refused:
            with pytest.raises(ConfigError, match="3N/4") as err:
                _build_state(rc)
            assert err.value.field == "state"
        else:
            assert _build_state(rc).dim == 50

    def test_default_revival_state_refused_like_a_given_one(self, capsys):
        # the default packet of width L/20 needs more than 10 modes to capture 0.999 of its norm
        assert run_cli(["revival", "--N", "10"]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == "state"

    def test_huge_fock_basis_refused_without_its_dimension(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["fock-algebra", "--N", "100000", "--modes", "100000", "--statistics", "fermion"])
        assert err.value.field == "modes"
        assert "32768" in str(err.value) and len(str(err.value)) < 200

    def test_oversized_fock_basis_refused(self, capsys):
        code = run_cli(["fock-algebra", "--modes", "20"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == "modes"

    @pytest.mark.parametrize(
        "args, field",
        [(["evolve", "--t-end", "1e308"], "t-end"), (["fock-density", "--t", "inf"], "t")],
    )
    def test_overflowing_phase_refused(self, args, field, capsys):
        code = run_cli(args)
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(diag) == {"error", "field"}
        assert diag["field"] == field

    @pytest.mark.parametrize(
        "n, periods, resolved",
        [(300, 100.0, True), (4096, 1.0, True), (20, -1e6, True), (20, 1e8, False), (300, -1e5, False)],
    )
    @pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), SI_ELECTRON])
    def test_phase_resolution_floor(self, n, periods, resolved, scales):
        """A grid end is refused once N^2 ulp(omega_1 |t|) passes 1e-6 rad, at any scale."""
        L, m, hbar = scales
        t = periods * revival_time(WellConfig(L=L, m=m, hbar=hbar, N=n))
        ends = ["--t-start", repr(t), "--t-end", "0"] if t < 0 else ["--t-end", repr(t)]
        argv = ["evolve", "--N", str(n), "--L", repr(L), "--m", repr(m), "--hbar", repr(hbar), *ends]
        if resolved:
            parse_config(argv)
        else:
            with pytest.raises(ConfigError) as err:
                parse_config(argv)
            assert err.value.field == ("t-start" if t < 0 else "t-end")


def test_cli_import_leaves_numpy_fft_and_polynomial_out():
    """Only a run that projects a wavefunction loads numpy.fft; nothing loads numpy.polynomial."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = "import sys, matrixwell.cli; print(sorted({'numpy.fft', 'numpy.polynomial'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = "import sys, matrixwell.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Values of each option's type for the fuzz property below, plus the floats
# that break naive arithmetic; sizes stay far under the caps of parse_config.
SPECIAL_FLOATS = ("0.0", "-0.0", "5e-324", "1e-310", "1e-308", "1e308", "-1e308", "inf", "-inf", "nan")
FUZZ_INTS = {
    "N": (-1, 64), "steps": (-1, 65), "block": (-1, 17), "modes": (-1, 4), "cutoff": (-1, 3),
    "particles": (-1, 9), "positions": (-1, 65),
}
FUZZ_ALWAYS = {"N", "steps"}  # their defaults (100 and 101) are above the fuzz sizes


def _float_text(lo, hi):
    """A float in [lo, hi] three times in four, else one of SPECIAL_FLOATS, as text."""
    usual = st.floats(lo, hi).map(repr)
    return st.one_of(usual, usual, usual, st.sampled_from(SPECIAL_FLOATS))


def _state_spec():
    keys = {"center": _float_text(0.0, 1.0), "width": _float_text(0.0, 0.3), "momentum": _float_text(-50.0, 50.0)}
    item = st.sampled_from(sorted(keys)).flatmap(lambda k: keys[k].map(lambda v: f"{k}={v}"))
    mode = st.integers(-1, 70)
    return st.one_of(
        st.lists(item, max_size=4).map(lambda items: "gaussian:" + ",".join(items)),
        mode.map(lambda n: f"eigen:{n}"),
        st.lists(mode, max_size=4).map(lambda ns: "modes:" + ",".join(map(str, ns))),
        st.sampled_from(["", "eigen:", "eigen:1.5", "plane-wave:7", "gaussian:center", "gaussian:=1"]),
    )


def _option_text(opt):
    if opt.key == "state":
        return _state_spec()
    if isinstance(opt.kind, tuple):
        return st.sampled_from([*opt.kind, *opt.kind, "xml"])
    if opt.kind is int:
        return st.integers(*FUZZ_INTS[opt.key]).map(str)
    return _float_text(0.25, 4.0) if opt.key in ("L", "m", "hbar") else _float_text(-3.0, 3.0)


@st.composite
def cli_runs(draw):
    """A scenario and flags for a random subset of the options it reads (never `out`)."""
    scenario = draw(st.sampled_from(tuple(SCENARIOS)))
    argv = [scenario]
    for opt in OPTIONS:
        if opt.key not in SCENARIOS[scenario][0] or opt.key == "out":
            continue
        if opt.key in FUZZ_ALWAYS or draw(st.booleans()):
            argv += [f"--{opt.key}", draw(_option_text(opt))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cli_runs())
def test_fuzzed_options_exit_cleanly(argv):
    """Every run exits 0, or 1 or 2 with a one-line JSON diagnostic naming a field or a kind."""
    _assert_exits_cleanly(argv)


def _assert_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue()
        return
    assert code in (1, 2), code
    diag = json.loads(err.getvalue().strip().splitlines()[-1])
    assert set(diag) == {"error", "field" if code == 2 else "kind"}, diag


# Words for the argv property below: every flag key, prefixes of keys, unknown keys and
# junk; `out` and `config` are left out, so that no file is read or written.
ARGV_KEYS = [opt.key for opt in OPTIONS if opt.key != "out"]
ARGV_VALUES = ("-4.5e-05", "-inf", "inf", "nan", "-1", "0", "2", "3", "8", "1e308", "5e-324", "json", "fermion",
               "eigen:1", "modes:1,2", "-", "")


@st.composite
def argv_words(draw):
    """A raw argv: scenario names, junk, `--key`, `--key value`, `--key=value`, in any order."""
    key = st.one_of(st.sampled_from(ARGV_KEYS), st.sampled_from(["fo", "form", "ste", "s", "foo", "", "-N"]))
    value = st.one_of(st.sampled_from(ARGV_VALUES), st.text(max_size=4).filter(lambda w: w != "-h"))
    word = st.one_of(
        st.sampled_from([*SCENARIOS, "warp-drive", "-x", "-4.5e-05"]),
        st.tuples(key, value).map(lambda kv: [f"--{kv[0]}", kv[1]]),
        st.tuples(key, value).map(lambda kv: f"--{kv[0]}={kv[1]}"),
        key.map(lambda k: f"--{k}"),  # a flag left without a value, unless a value follows
        value,
    )
    words = draw(st.lists(word, max_size=8))
    # half the runs end with --N 8, which overrides a drawn N and keeps an accepted run small
    argv = [w for item in words for w in (item if isinstance(item, list) else [item])]
    return argv + ["--N", "8"] if draw(st.booleans()) else argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv_words())
@example(["elements", "--form", "json"])
@example(["elements", "--N"])
@example(["--N", "8", "warp-drive"])
def test_any_argv_exits_cleanly(argv):
    """No argv but --help makes main raise: every run exits 0, or 1 or 2 with a JSON diagnostic."""
    _assert_exits_cleanly(argv)


def _magnitude(lo, hi):
    """10**e for e uniform in [lo, hi]: log-uniform magnitudes."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(["spread", "ehrenfest"]),
    n=st.integers(16, 40),
    packet=st.tuples(st.floats(0.25, 0.75), st.floats(0.03, 0.1), st.floats(-20.0, 20.0)),
    times=st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0)),
    steps=st.integers(3, 9),
    # within 1e+-40, s N^3, (hbar pi N / L)^2 and every phase stay far inside the float range
    scales=st.tuples(_magnitude(-40, 40), _magnitude(-40, 40), _magnitude(-40, 40)),
)
# the uncertainty guard once tolerated an absolute 1e-9: off below hbar ~ 2e-9, and tripped
# by rounding alone at large hbar
@example("spread", 12, (0.3, 0.04, 0.0), (0.0, 1.0), 9, SI_ELECTRON)
@example("ehrenfest", 40, (0.4, 0.04, 0.0), (0.0, 1e-6 * math.pi / 16.0), 3, (2.0, 1e6, 1e6))
# a projection's raw coefficients scale as sqrt(L), and were once refused as of near-zero norm
@example("spread", 16, (0.5, 0.04, 0.0), (0.0, 1.0), 3, (1e-25, 1.0, 1.0))
def test_exit_code_is_scale_covariant(scenario, n, packet, times, steps, scales):
    """A run given in units of L, hbar / L and the revival time exits as it does at L = m = hbar = 1.

    `packet` is the center, width and momentum of a gaussian state; `times` the grid
    start and its length.
    """

    def exit_code(length, mass, hbar):
        t_r = 4.0 * mass * length**2 / (hbar * math.pi)
        center, width, momentum = packet
        state = f"gaussian:center={center * length!r},width={width * length!r},momentum={momentum * hbar / length!r}"
        start, end = times[0] * t_r, (times[0] + times[1]) * t_r
        argv = [scenario, "--N", str(n), "--steps", str(steps), "--state", state, "--t-start", repr(start),
                "--t-end", repr(end), "--L", repr(length), "--m", repr(mass), "--hbar", repr(hbar)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    assert exit_code(*scales) == exit_code(1.0, 1.0, 1.0)


def _signed(magnitude):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda pair: pair[0] * pair[1])


@st.composite
def scaled_series_runs(draw):
    """spread or ehrenfest with L, m, hbar and signed grid ends log-uniform over 1e-300 .. 1e300."""
    wide = _magnitude(-300, 300)
    length, mass, hbar = draw(wide), draw(wide), draw(wide)
    n = draw(st.integers(2, 40))
    start, end = sorted([draw(_signed(wide)), draw(_signed(wide))])
    mode = st.integers(1, n)
    state = draw(
        st.one_of(
            mode.map(lambda k: f"eigen:{k}"),
            st.lists(mode, min_size=1, max_size=3, unique=True).map(lambda ks: "modes:" + ",".join(map(str, ks))),
            st.tuples(st.floats(0.1, 0.9), st.floats(0.01, 0.2), st.floats(-30.0, 30.0)).map(
                lambda p: f"gaussian:center={p[0] * length!r},width={p[1] * length!r},momentum={p[2] * hbar / length!r}"
            ),
        )
    )
    return [
        draw(st.sampled_from(["spread", "ehrenfest"])), "--N", str(n), "--steps", str(draw(st.integers(3, 9))),
        "--L", repr(length), "--m", repr(mass), "--hbar", repr(hbar),
        "--t-start", repr(start), "--t-end", repr(end), "--state", state,
    ]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(scaled_series_runs())
def test_fuzzed_scales_exit_cleanly(argv):
    """spread and ehrenfest at any float scale exit 0, or 1 or 2 with a one-line JSON diagnostic."""
    _assert_exits_cleanly(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3, 8, 64]), scales=st.tuples(*[_magnitude(-330, 308)] * 3))
# p/i underflows to 0 here, while the revival time and omega_1 stay in range
@example(2, (1e30, 1e-200, 1e-300))
# 15 of the 1024 p/i entries are subnormal here
@example(64, (1.0, 1.0, 2e-307))
def test_accepted_scales_form_every_entry(n, scales):
    """Wherever elements is accepted, every k + l odd entry of x and p/i is a finite normal float."""
    argv = ["elements", "--N", str(n)]
    for key, value in zip(("L", "m", "hbar"), scales):
        argv += [f"--{key}", repr(value)]
    try:
        rc = parse_config(argv)
    except ConfigError:
        return
    # B = x[odd, even] and Q = (p/i)[odd, even] hold every k + l odd entry, up to the sign of Q^T
    for block in _parity_blocks(rc.well, "x", "p/i"):
        assert np.all(np.isfinite(block) & (np.abs(block) >= np.finfo(float).tiny)), argv


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    scales=st.tuples(*[_magnitude(-30, 30)] * 3),
    n=st.integers(1, 4096),
    t=_signed(_magnitude(-40, 40)) | st.floats(-1e3, 1e3),
)
@example((1.0, 1.0, 1.0), 4096, 1e3 * 4.0 / math.pi)
@example((0.644, 0.0578, 4.88), 3, 61.6)  # 3.30 N^2 ulp, the largest error seen
def test_phase_error_is_below_the_resolution_bound(scales, n, t):
    """Every phase n^2 (omega_1 t), n <= N, as the engine forms it, lies within 7.7 N^2 ulp(omega_1 t)
    of its 60-digit value: the bound that cli._PHASE_RESOLUTION rests on.

    omega_1 t = hbar pi^2 / (2 m L^2) t carries the error of float pi and six roundings, at most
    6.7 ulp of itself; rounding n^2 (omega_1 t) adds half an ulp of it, below N^2 ulp(omega_1 t).
    """
    L, m, hbar = scales
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=max(2, n))
    wt = cfg.base_frequency * t
    ulp = np.spacing(abs(wt))
    if not (np.isfinite(wt) and np.finfo(float).tiny <= abs(wt)) or n * n * abs(wt) > 1e300:
        return
    modes = np.arange(1, n + 1)
    phases = modes**2 * wt  # the integer n^2 times the one float omega_1 t, as every evolution forms it
    with mpmath.workdps(60):
        exact = mpmath.mpf(hbar) * mpmath.pi**2 / (2 * mpmath.mpf(m) * mpmath.mpf(L) ** 2) * mpmath.mpf(t)
        worst = max(abs(mpmath.mpf(float(p)) - int(k) ** 2 * exact) for k, p in zip(modes, phases))
    assert worst <= 7.7 * n**2 * ulp, float(worst / (n**2 * ulp))


INT_KEYS = [opt.key for opt in OPTIONS if opt.kind is int]
HUGE = st.integers(0, 420).flatmap(lambda e: st.integers(0, 10**e))  # log-uniform up to 10**420


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(tuple(SCENARIOS)),
    sizes=st.fixed_dictionaries(dict.fromkeys(INT_KEYS, HUGE)),
    scales=st.tuples(*[_magnitude(-330, 308)] * 3),
)
@example("evolve", dict.fromkeys(INT_KEYS, 10**157), (1.0, 1.0, 1.0))
def test_any_size_is_checked_at_parse_time(scenario, sizes, scales):
    """parse_config accepts or refuses every size, in a few MiB; nothing is run."""
    argv = [scenario, "--state", "eigen:1"]
    for key, value in [*sizes.items(), *zip(("L", "m", "hbar"), scales)]:
        argv += [f"--{key}", str(value)]
    tracemalloc.start()
    try:
        with contextlib.suppress(ConfigError):
            parse_config(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
