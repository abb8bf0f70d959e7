"""Tests for the command-line runner: formats, exit codes, determinism."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qslsim import (Hamiltonian, PureState, SubsystemLayout, dump_system, ground_shift,
                    load_system, make_psi_ent)
from qslsim import EntangledChainSpec, OrthogonalityResult
from qslsim.cli import main
from qslsim.dynamics import TIME_RESOLUTION
from conftest import random_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_saturating_qubit(path):
    lay = SubsystemLayout((2,))
    state = PureState(lay, np.array([INV_SQRT2, INV_SQRT2]))
    h = Hamiltonian(lay, np.diag([0.0, 1.0]).astype(complex))
    dump_system(state, h, path)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


class TestBoundCmd:
    def test_equal(self, capsys):
        code, out, _ = run(capsys, "bound", "--energy", "1", "--spread", "1")
        assert code == 0
        assert out == "t_qsl=1.57079632679 branch=Equal\n"

    def test_spread_governed(self, capsys):
        code, out, _ = run(capsys, "bound", "--energy", "2", "--spread", "0.5")
        assert code == 0
        assert out.startswith("t_qsl=3.14159265359 branch=TimeEnergyUncertainty")

    def test_unbounded(self, capsys):
        code, out, _ = run(capsys, "bound", "--energy", "0", "--spread", "1")
        assert code == 0
        assert "unbounded" in out

    def test_negative_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "bound", "--energy", "-1", "--spread", "1")
        assert code == 2
        assert "nonnegative" in err

    def test_unparseable_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--energy", "abc", "--spread", "1")
        assert code == 2

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "bound", "--energy", "1", "--spread", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "bound"
        assert payload["time"] == pytest.approx(math.pi / 2)
        assert payload["branch"] == "Equal"


# ---------------------------------------------------------------------------
# tperp
# ---------------------------------------------------------------------------


class TestTperpCmd:
    def test_saturating_qubit(self, capsys, tmp_path):
        path = tmp_path / "qubit.json"
        write_saturating_qubit(path)
        code, out, _ = run(capsys, "tperp", str(path))
        assert code == 0
        assert out.startswith("Found t_perp=3.14159265359 bound=3.14159265359 ratio=1.000000")

    def test_eigenstate_not_found(self, capsys, tmp_path):
        lay = SubsystemLayout((2,))
        state = PureState(lay, np.array([0.0, 1.0], dtype=complex))
        h = Hamiltonian(lay, np.diag([0.0, 1.0]).astype(complex))
        path = tmp_path / "eigen.json"
        dump_system(state, h, path)
        code, out, _ = run(capsys, "tperp", str(path))
        assert code == 0
        assert out.startswith("NotFound min_overlap=1")

    def test_entangled_chain_file(self, capsys, tmp_path):
        state, h, _ = make_psi_ent(EntangledChainSpec(2, 2, 1.0))
        path = tmp_path / "chain.json"
        dump_system(state, h, path)
        code, out, _ = run(capsys, "tperp", str(path))
        assert code == 0
        assert "Found t_perp=1.5707963267" in out

    def test_unshifted_hamiltonian_shifted_explicitly(self, capsys, tmp_path):
        lay = SubsystemLayout((2,))
        state = PureState(lay, np.array([INV_SQRT2, INV_SQRT2]))
        h = Hamiltonian(lay, np.diag([1.0, 2.0]).astype(complex))
        path = tmp_path / "raised.json"
        dump_system(state, h, path)
        code, out, _ = run(capsys, "tperp", str(path))
        assert code == 0
        assert "ground_shift=-1 applied" in out
        assert "Found t_perp=3.14159265359" in out

    def test_schema_error_exit_2_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "hamiltonian": []}')
        code, _, err = run(capsys, "tperp", str(path))
        assert code == 2
        assert "amplitudes/matrix" in err

    def test_invariant_violation_exit_3(self, capsys, tmp_path):
        path = tmp_path / "unnormalized.json"
        path.write_text(json.dumps({
            "dims": [2],
            "amplitudes": [[1.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        }))
        code, _, err = run(capsys, "tperp", str(path))
        assert code == 3
        assert "norm" in err

    @pytest.mark.parametrize("field", ["amplitudes", "hamiltonian"])
    def test_nan_literal_exit_3(self, capsys, tmp_path, field):
        system = {
            "dims": [2],
            "amplitudes": [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]],
            "hamiltonian": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        }
        system[field][0][1] = math.nan
        text = json.dumps(system)  # json.load accepts the literal NaN it writes
        assert "NaN" in text
        path = tmp_path / "nan.json"
        path.write_text(text)
        code, out, err = run(capsys, "tperp", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input:") and "non-finite" in err
        assert err.count("\n") == 1

    def test_oversized_integer_exit_2(self, capsys, tmp_path):
        # json.load turns a 400-digit integer literal into an int no double holds
        path = tmp_path / "big.json"
        path.write_text('{"dims": [2], "amplitudes": [[1, 0], [0, 0]], '
                        '"hamiltonian": [[0, 0], [0, 0], [0, 0], [1' + "0" * 400 + ', 0]]}')
        code, out, err = run(capsys, "tperp", str(path))
        assert code == 2
        assert out == ""
        assert err == "schema error: hamiltonian[3]: number too large for a double\n"

    @pytest.mark.parametrize("text, reason", [
        ('{"dims": [' + "1" * 5000 + "]}",
         "top level: not valid JSON (Exceeds the limit (4300 digits)"),
        ("[" * 200_000 + "]" * 200_000,
         "top level: not valid JSON (maximum recursion depth exceeded"),
        (b'{"dims": [2], "note": "\xff"}', "top level: not valid JSON ('utf-8' codec can't decode"),
        (json.dumps({"dims": [2] * 15000, "amplitudes": [], "hamiltonian": []}),
         "dims: the total dimension of the 15000 subsystems exceeds the dense cap 4096"),
    ], ids=["long-integer", "deep-nesting", "not-utf8", "many-dims"])
    def test_malformed_file_exit_2(self, capsys, tmp_path, text, reason):
        path = tmp_path / "system.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run(capsys, "tperp", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"schema error: {reason}")
        assert err.count("\n") == 1

    def test_json_envelope(self, capsys, tmp_path):
        path = tmp_path / "qubit.json"
        write_saturating_qubit(path)
        code, out, _ = run(capsys, "tperp", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Found"
        assert payload["t_perp"] == pytest.approx(math.pi, abs=1e-9)
        assert payload["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_horizon_beyond_the_float_range_of_samples_exit_3(self, capsys, tmp_path):
        path = tmp_path / "qubit.json"
        write_saturating_qubit(path)
        code, out, err = run(capsys, "tperp", str(path), "--horizon", "1.5e308")
        assert (code, out) == (3, "")
        assert err.startswith("invalid input: scanning horizon") and err.count("\n") == 1

    def test_large_entry_hamiltonian_exit_0(self, capsys, tmp_path):
        # U diag(1e4 * (0..7)) U^H is Hermitian to round-off relative to its
        # entries, not to an absolute 1e-12; half |0> and half |1e4> first
        # vanishes at pi / 1e4
        u = random_unitary(np.random.default_rng(2002), 8)
        mat = (u * (1e4 * np.arange(8.0))) @ u.conj().T
        assert np.abs(mat - mat.conj().T).max() > 1e-12
        pairs = lambda arr: [[z.real, z.imag] for z in arr.reshape(-1).tolist()]
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"dims": [8], "amplitudes": pairs(u[:, :2].sum(axis=1) * INV_SQRT2),
                                    "hamiltonian": pairs(mat)}))
        code, out, err = run(capsys, "tperp", str(path), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["status"] == "Found"
        assert payload["t_perp"] == pytest.approx(math.pi / 1e4, rel=1e-8)

    @pytest.mark.parametrize("flags", [(), ("--horizon", "10"), ("--json",)])
    def test_unpopulated_level_at_the_float_limit(self, capsys, tmp_path, flags):
        # half |0> and half |1> of diag(0, 1, 1e308): the empty level neither
        # hides the spread (horizon 0) nor overflows the survival's phases
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "dims": [3], "amplitudes": [[0.5, 0.5], [0.5, 0.5], [0, 0]],
            "hamiltonian": [[0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0],
                            [0, 0], [0, 0], [1e308, 0]]}))
        code, out, err = run(capsys, "tperp", str(path), *flags)
        assert (code, err) == (0, "")
        if flags == ("--json",):
            payload = json.loads(out)
            assert payload["status"] == "Found"
            t_perp = payload["t_perp"]
        else:
            assert out.startswith("Found t_perp=")
            t_perp = float(out.split()[1].split("=")[1])
        assert abs(t_perp - math.pi) <= TIME_RESOLUTION

    def test_horizon_flag(self, capsys, tmp_path):
        path = tmp_path / "qubit.json"
        write_saturating_qubit(path)
        code, out, _ = run(capsys, "tperp", str(path), "--horizon", "1.0")
        assert code == 0
        assert out.startswith("NotFound")


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------


class TestFig1Cmd:
    def test_small_sweep_stdout(self, capsys):
        code, out, _ = run(capsys, "fig1", "--qubits", "3", "--stop", "1", "--step", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega_ratio,t_perp,t_qsl,ratio"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # M=3, w=0: t_perp = pi/2, t_qsl = pi/(2*sqrt(3))
        assert float(first[1]) == pytest.approx(math.pi / 2, abs=1e-9)
        assert float(first[3]) == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_single_qubit_reaches_its_bound(self, capsys):
        # one qubit is a two-level system at frequency 2(omega + omega0), so
        # t_perp = t_qsl = pi / (2 (omega + omega0)) on every row
        code, out, err = run(capsys, "fig1", "--qubits", "1", "--stop", "3", "--step", "0.5",
                             "--json")
        assert (code, err) == (0, "")
        for row in json.loads(out)["rows"]:
            t_qsl = math.pi / (2.0 * (1.0 + row["omega_ratio"]))
            assert row["t_qsl"] == pytest.approx(t_qsl, rel=1e-15)
            assert row["t_perp"] == pytest.approx(t_qsl, abs=1e-10)
            assert row["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_csv_has_12_significant_digits(self, capsys):
        code, out, _ = run(capsys, "fig1", "--qubits", "3", "--stop", "0", "--step", "1")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[1] == "1.57079632679"  # pi/2 at 12 significant digits

    def test_bump_against_mpmath(self, capsys):
        # M = 9 is odd, so the overlap cos(r t) cos^9(t) - sin(r t) sin^9(t)
        # (omega0 = 1, omega = r) is real and t_perp is its first sign change,
        # located here at 40 digits independently of qslsim.
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, "fig1", "--start", "1", "--stop", "1.75", "--step", "0.25")
        assert code == 0
        rows = {float(r.split(",")[0]): r.split(",") for r in out.strip().split("\n")[1:]}
        with mpmath.workdps(40):
            for r, ratio in [(1.0, 1.581139), (1.25, 1.584669), (1.75, 1.596058)]:
                r_mp = mpmath.mpf(r)

                def overlap(t):
                    return (mpmath.cos(r_mp * t) * mpmath.cos(t) ** 9
                            - mpmath.sin(r_mp * t) * mpmath.sin(t) ** 9)

                step = mpmath.pi / (64 * (r_mp + 9))
                t = step
                while overlap(t) > 0:
                    t += step
                t_perp = mpmath.findroot(overlap, (t - step, t), solver="anderson")
                t_qsl = mpmath.pi / (2 * mpmath.sqrt(r_mp ** 2 + 9))
                assert float(rows[r][1]) == pytest.approx(float(t_perp), abs=1e-9)
                assert float(t_perp / t_qsl) == pytest.approx(ratio, abs=5e-7)
                assert float(rows[r][3]) == pytest.approx(float(t_perp / t_qsl), abs=1e-9)
        assert float(rows[1.0][1]) == pytest.approx(math.pi / 4, abs=1e-11)
        # the ratio rises over the bump, against criterion 3's monotonicity clause
        assert float(rows[1.0][3]) < float(rows[1.25][3]) < float(rows[1.75][3])

    def test_limit_row(self, capsys):
        code, out, _ = run(capsys, "fig1", "--qubits", "9", "--stop", "0",
                           "--step", "1", "--limit")
        assert code == 0
        lines = out.strip().split("\n")
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(math.pi / 6, abs=1e-12)  # t_qsl at ratio 0
        assert lines[-1].startswith("inf,")
        ratio = float(lines[-1].split(",")[3])
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "fig1", "--qubits", "3", "--stop", "1",
                           "--step", "0.5", "--json")
        assert code == 0
        lines = out.strip().split("\n")
        payload = json.loads(lines[-1])
        assert payload["command"] == "fig1"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["ratio"] == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_not_found_rows_have_empty_fields(self, capsys):
        # even qubit count with an incommensurate coupling never orthogonalizes
        code, out, _ = run(capsys, "fig1", "--qubits", "2", "--start", "0.37",
                           "--stop", "0.37", "--step", "1")
        assert code == 0
        row = out.strip().split("\n")[1]
        parts = row.split(",")
        assert parts[1] == "" and parts[3] == ""
        assert float(parts[2]) > 0

    def test_deterministic_file_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "fig1", "--qubits", "3", "--stop", "2",
                             "--step", "0.5", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_rendered(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "fig1", "--qubits", "3", "--stop", "1",
                         "--step", "0.5", "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'width="800" height="600"' in text
        assert "stroke-dasharray" in text  # the bound curve is dashed
        assert "<circle" in text  # measured points
        assert "<path" in text  # shaded forbidden region + curve

    def test_bad_grid_exit_2_and_no_partial_file(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, err = run(capsys, "fig1", "--step", "-0.5", "--out", str(out_path))
        assert code == 2
        assert "step" in err
        assert not out_path.exists()

    def test_too_many_grid_points_exit_2(self, capsys):
        code, _, err = run(capsys, "fig1", "--start", "0", "--stop", "1000",
                           "--step", "0.0001")
        assert code == 2
        assert "points" in err

    def test_grid_count_beyond_the_float_range_exit_2(self, capsys):
        # (stop - start) / step overflows to inf
        code, out, err = run(capsys, "fig1", "--stop", "1e300", "--step", "1e-300")
        assert (code, out) == (2, "")
        assert err == "fig1: grid has more than 100000 points\n"


# ---------------------------------------------------------------------------
# ent-scan
# ---------------------------------------------------------------------------


class TestEntScanCmd:
    def test_columns_and_values(self, capsys):
        code, out, _ = run(capsys, "ent-scan", "--levels", "2",
                           "--subsystems", "1,2", "--omega0", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,M,t_perp_entangled,separable_bound,qsl_time"
        row1 = lines[1].split(",")
        assert (row1[0], row1[1]) == ("2", "1")
        # M=1: both the orthogonality time and the separable bound are pi
        assert float(row1[2]) == pytest.approx(math.pi)
        assert float(row1[3]) == pytest.approx(math.pi)
        row2 = lines[2].split(",")
        assert float(row2[2]) == pytest.approx(math.pi / 2)
        assert float(row2[3]) == pytest.approx(math.pi)
        assert float(row2[4]) == pytest.approx(math.pi / 2)

    def test_three_level_pair(self, capsys):
        code, out, _ = run(capsys, "ent-scan", "--levels", "3", "--subsystems", "2")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(math.pi / 3)

    def test_speedup_floor_holds_on_emitted_rows(self, capsys):
        code, out, _ = run(capsys, "ent-scan", "--levels", "2,3",
                           "--subsystems", "2,3")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            n, m, t_perp, sep_bound, _ = line.split(",")
            assert float(sep_bound) / float(t_perp) >= math.sqrt(int(m)) * (1 - 1e-6)

    def test_bad_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "ent-scan", "--levels", "x,y")
        assert code == 2

    def test_identical_subsystems_bound_as_one(self, capsys, monkeypatch):
        # an M-element list of equal stats took 1.1 s and 80 MB at M = 10^7
        import qslsim.cli as cli_module

        lengths = []
        bound = cli_module.separable_pure_bound

        def recorded(stats):
            lengths.append(len(stats))
            return bound(stats)

        monkeypatch.setattr(cli_module, "separable_pure_bound", recorded)
        code, out, err = run(capsys, "ent-scan", "--levels", "2,10",
                             "--subsystems", "3,10000000")
        assert (code, err) == (0, "")
        assert lengths == [1] * 4
        assert out.splitlines()[-1] == "10,10000000,6.28318530718e-08,0.546881085105,5.46881085105e-08"

    @pytest.mark.parametrize("flags", [
        ("--levels", "2", "--subsystems", "1" + "0" * 400),
        ("--levels", "1" + "0" * 400, "--subsystems", "2"),
        ("--levels", "1" + "0" * 200, "--subsystems", "1", "--omega0", "1e-250", "--no-verify"),
    ], ids=["subsystems-401-digits", "levels-401-digits", "levels-squared"])
    def test_counts_beyond_the_float_range_exit_3(self, capsys, flags):
        code, out, err = run(capsys, "ent-scan", *flags)
        assert (code, out) == (3, "")
        assert err == "invalid input: the chain's t_perp or energies lie outside the float range\n"

    def test_cap_flag_cannot_raise_the_dense_cap(self, capsys):
        # 3^8 = 6561 is within --cap but beyond DENSE_CAP: the layout rejects it
        code, out, err = run(capsys, "ent-scan", "--cap", "8192", "--levels", "3",
                             "--subsystems", "8")
        assert (code, out) == (3, "")
        assert err == ("invalid input: the total dimension of the 8 subsystems "
                       "exceeds the dense cap 4096\n")


# ---------------------------------------------------------------------------
# mixture-demo
# ---------------------------------------------------------------------------


class TestMixtureDemoCmd:
    def test_summary_and_curve(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "mixture-demo", "--omega", "1",
                           "--out", str(curve))
        assert code == 0
        assert "verdict=SaturatingStructure" in out
        assert "term 0: evolving=0" in out
        assert "term 1: evolving=1" in out
        final = [l for l in out.strip().split("\n") if l.startswith("t_perp=")][0]
        fields = dict(part.split("=") for part in final.split(" "))
        assert float(fields["t_perp"]) == pytest.approx(math.pi, abs=1e-8)
        assert float(fields["t_qsl"]) == pytest.approx(math.pi, abs=1e-12)

        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "t,survival"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
        # the sample grid includes t = pi (midpoint of [0, 2*pi], odd count)
        mid = lines[1 + (len(lines) - 1) // 2].split(",")
        assert float(mid[0]) == pytest.approx(math.pi, abs=1e-9)
        assert float(mid[1]) <= 1e-9

    def test_prints_pi_to_every_digit(self, capsys):
        # a density matrix's zero is as sharp as a pure state's, so the printed
        # 12 digits of t_perp are those of pi
        code, out, _ = run(capsys, "mixture-demo")
        assert code == 0
        assert "t_perp=3.14159265359 t_qsl=3.14159265359\n" in out

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "mixture-demo", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "SaturatingStructure"
        assert [t["evolving"] for t in payload["terms"]] == [0, 1]
        assert payload["t_perp"] == pytest.approx(math.pi, abs=1e-8)

    def test_bad_omega_exit_2(self, capsys):
        code, _, _ = run(capsys, "mixture-demo", "--omega", "0")
        assert code == 2

    def test_too_many_samples_exit_2(self, capsys):
        code, out, err = run(capsys, "mixture-demo", "--samples", "100001")
        assert (code, out) == (2, "")
        assert err == "mixture-demo: --samples must be between 0 and 100000\n"


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


class TestGroupsCmd:
    def test_three_by_three(self, capsys):
        code, out, _ = run(capsys, "groups", "--groups", "3", "--per-group", "3",
                           "--omega0", "0", "--omega", "1")
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split(" "))
        assert float(fields["ratio"]) == pytest.approx(math.sqrt(3.0), abs=1e-8)
        assert float(fields["sqrt_m_over_q"]) == pytest.approx(math.sqrt(3.0))

    def test_two_by_one(self, capsys):
        code, out, _ = run(capsys, "groups", "--groups", "2", "--per-group", "1",
                           "--omega0", "1", "--omega", "0")
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split(" "))
        assert float(fields["ratio"]) == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_single_group_matches_fig1_point(self, capsys):
        code, out, _ = run(capsys, "groups", "--groups", "1", "--per-group", "3",
                           "--omega0", "1", "--omega", "0.5", "--no-verify")
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split(" "))
        code2, out2, _ = run(capsys, "fig1", "--qubits", "3", "--start", "0.5",
                             "--stop", "0.5", "--step", "1")
        row = out2.strip().split("\n")[1].split(",")
        assert float(fields["t_perp"]) == pytest.approx(float(row[1]), abs=1e-10)

    def test_default_couplings_three_by_three(self, capsys):
        # The product cos^18(t) stays below the matrix threshold 1e-20 on
        # about [1.49, 1.65]; the matrix solver may stop anywhere in there.
        code, out, _ = run(capsys, "groups", "--groups", "3", "--per-group", "3")
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split(" "))
        assert float(fields["t_perp"]) == pytest.approx(math.pi / 2, abs=1e-10)

    @pytest.mark.parametrize("t_wrong", [1.0, 1.5 * math.pi])
    def test_group_answer_outside_first_valley_exit_4(self, capsys, monkeypatch, t_wrong):
        # 1.0 precedes the first valley of cos^18(t) and 3*pi/2 is the second
        import qslsim.cli as cli_module

        def wrong(*args, **kwargs):
            return OrthogonalityResult(True, t_wrong, 0.0, t_wrong, 10.0)

        monkeypatch.setattr(cli_module, "grouped_t_perp", wrong)
        code, _, err = run(capsys, "groups", "--groups", "3", "--per-group", "3")
        assert code == 4
        assert "first interval" in err

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, err = run(capsys, "groups", "--groups", "4", "--per-group", "4",
                           "--cap", "4096")
        assert code == 2
        assert "cap" in err

    def test_dimension_far_beyond_the_cap_exit_2(self, capsys):
        # 2 ** (10 ** 12) would take ~125 GB; the check stops multiplying at 2^13
        code, out, err = run(capsys, "groups", "--groups", "1000000", "--per-group", "1000000")
        assert (code, out) == (2, "")
        assert err == "groups: dimension 2^1000000000000 exceeds the dense cap 4096\n"

    def test_exponent_beyond_the_int_to_str_limit_exit_2(self, capsys):
        # the exponent has ~4400 digits, more than int-to-str converts
        big = "1" + "0" * 2199
        code, out, err = run(capsys, "groups", "--groups", big, "--per-group", big)
        assert (code, out) == (2, "")
        assert err == "groups: dimension 2^(groups x per-group) exceeds the dense cap 4096\n"

    def test_unbounded_bound_prints_unbounded(self, capsys):
        # E = 4e-13 is below the bound's zero tolerance, so t_qsl is infinite
        code, out, err = run(capsys, "groups", "--groups", "2", "--per-group", "2",
                             "--omega0", "1e-13", "--no-verify")
        assert (code, err) == (0, "")
        assert out == ("t_perp=1.57079632679e+13 t_qsl=unbounded ratio=n/a "
                       "sqrt_m_over_q=1.41421356237\n")

    def test_slow_system_verified_within_an_explicit_horizon(self, capsys):
        # the full matrix's bandwidth is 2e-13; t_perp = pi / (2 omega0)
        code, out, err = run(capsys, "groups", "--groups", "1", "--per-group", "1",
                             "--omega0", "1e-13", "--horizon", "1e14", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["t_perp"] == pytest.approx(math.pi / 2e-13, rel=1e-10)
        assert (payload["t_qsl"], payload["ratio"]) == (None, None)

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "groups", "--groups", "2", "--per-group", "2",
                           "--omega0", "0", "--omega", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == pytest.approx(math.sqrt(2.0), abs=1e-8)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


class TestTopLevel:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_numerical_failure_exit_4(self, capsys, tmp_path, monkeypatch):
        import qslsim.cli as cli_module
        from qslsim import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("solver went sideways")

        monkeypatch.setattr(cli_module, "first_orthogonal_time", boom)
        path = tmp_path / "qubit.json"
        write_saturating_qubit(path)
        code = main(["tperp", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert "numerical failure" in captured.err


# ---------------------------------------------------------------------------
# one report path: flags, JSON envelopes, failures
# ---------------------------------------------------------------------------


JSON_KEYS = {
    "bound": {"command", "time", "unbounded", "branch"},
    "tperp": {"command", "status", "t_perp", "t_qsl", "ratio", "min_overlap", "t_at_min",
              "horizon", "ground_shift_applied"},
    "fig1": {"command", "rows", "out", "svg"},
    "ent-scan": {"command", "rows", "out"},
    "mixture-demo": {"command", "verdict", "terms", "t_perp", "t_qsl", "out"},
    "groups": {"command", "status", "t_perp", "t_qsl", "ratio", "sqrt_m_over_q"},
}


def small_argv(command, tmp_path):
    """A quick invocation of each subcommand."""
    qubit = tmp_path / "qubit.json"
    write_saturating_qubit(qubit)
    return {
        "bound": ["bound", "--energy", "1", "--spread", "2"],
        "tperp": ["tperp", str(qubit)],
        "fig1": ["fig1", "--qubits", "3", "--stop", "1", "--step", "0.5"],
        "ent-scan": ["ent-scan", "--levels", "2", "--subsystems", "1,2"],
        "mixture-demo": ["mixture-demo", "--samples", "5"],
        "groups": ["groups", "--groups", "2", "--per-group", "1"],
    }[command]


class TestReportPath:
    @pytest.mark.parametrize("command", sorted(JSON_KEYS))
    def test_json_stdout_is_one_envelope_line(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *small_argv(command, tmp_path), "--json")
        assert code == 0 and err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        payload = json.loads(out)
        assert payload["command"] == command
        assert set(payload) == JSON_KEYS[command]

    @pytest.mark.parametrize("command", sorted(JSON_KEYS))
    def test_subcommands_compute_without_io(self, capsys, tmp_path, command):
        import qslsim.cli as cli_module

        args = cli_module._build_parser().parse_args(small_argv(command, tmp_path))
        report = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert isinstance(report, cli_module.Report)
        assert set(report.payload) | {"command"} == JSON_KEYS[command]

    @pytest.mark.parametrize("command", ["fig1", "ent-scan", "mixture-demo"])
    def test_json_with_out_writes_the_text_mode_csv(self, capsys, tmp_path, command):
        argv = small_argv(command, tmp_path)
        code, text_out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, *argv, "--json", "--out", str(path))
        assert code == 0
        assert json.loads(out)["out"] == str(path)
        assert text_out.endswith(path.read_text())

    @pytest.mark.parametrize("argv", [
        ["bound", "--energy", "1", "--spread", "1", "--out", "FILE"],
        ["bound", "--energy", "1", "--spread", "1", "--svg", "FILE"],
        ["bound", "--energy", "1", "--spread", "1", "--horizon", "1"],
        ["bound", "--energy", "1", "--spread", "1", "--tol", "1e-3"],
        ["tperp", "QUBIT", "--out", "FILE"],
        ["tperp", "QUBIT", "--svg", "FILE"],
        ["fig1", "--qubits", "3", "--stop", "1", "--tol", "1e-3"],
        ["ent-scan", "--levels", "2", "--subsystems", "2", "--svg", "FILE"],
        ["ent-scan", "--levels", "2", "--subsystems", "2", "--horizon", "1"],
        ["ent-scan", "--tol", "1e-3"],
        ["mixture-demo", "--svg", "FILE"],
        ["groups", "--groups", "2", "--per-group", "1", "--out", "FILE"],
        ["groups", "--groups", "2", "--per-group", "1", "--svg", "FILE"],
    ])
    def test_flags_a_subcommand_does_not_read_exit_2(self, capsys, tmp_path, argv):
        qubit = tmp_path / "qubit.json"
        write_saturating_qubit(qubit)
        target = tmp_path / "x"
        argv = [{"FILE": str(target), "QUBIT": str(qubit)}.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["fig1", "--out", "MISSING/x.csv"],
        ["fig1", "--svg", "MISSING/x.svg"],
        ["mixture-demo", "--out", "MISSING/x.csv"],
        ["tperp", "MISSING.json"],
        ["tperp", "DIR"],
        ["fig1", "--step", "nan"],
        ["fig1", "--stop", "inf"],
        ["mixture-demo", "--samples", "-5"],
    ])
    def test_former_tracebacks_exit_2(self, capsys, tmp_path, argv):
        argv = [a.replace("MISSING", str(tmp_path / "missing")).replace("DIR", str(tmp_path))
                for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["fig1", "--omega0", "1e300"],
        ["fig1", "--omega0", "1e-300"],
        ["groups", "--groups", "2", "--per-group", "1", "--omega0", "1e300"],
        ["groups", "--groups", "2", "--per-group", "1", "--omega", "1e300"],
        ["groups", "--groups", "2", "--per-group", "1", "--omega0", "1e-300"],
        # the energy falls below the bound's zero tolerance: t_qsl is infinite
        ["mixture-demo", "--omega", "1e-300"],
        ["mixture-demo", "--omega", "1e-13"],
    ])
    def test_extreme_frequencies_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    def test_failed_svg_write_removes_the_csv(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "fig1", "--qubits", "3", "--stop", "1",
                             "--out", str(csv), "--svg", str(tmp_path / "missing" / "x.svg"))
        assert code == 2
        assert out == ""
        assert err.startswith("fig1: cannot write ")
        assert not csv.exists()

    @pytest.mark.parametrize("target, argv", [
        ("first_orthogonal_time", ["tperp", "QUBIT"]),
        ("collective_t_perp", ["fig1", "--qubits", "3", "--stop", "1"]),
        ("grouped_t_perp", ["groups", "--groups", "2", "--per-group", "1", "--no-verify"]),
    ])
    def test_ratio_floor_exit_4(self, capsys, tmp_path, monkeypatch, target, argv):
        import qslsim.cli as cli_module

        def too_early(*args, **kwargs):
            return OrthogonalityResult(True, 0.1, 0.0, 0.1, 10.0)

        monkeypatch.setattr(cli_module, target, too_early)
        qubit = tmp_path / "qubit.json"
        write_saturating_qubit(qubit)
        code, out, err = run(capsys, *[str(qubit) if a == "QUBIT" else a for a in argv])
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "measured t_perp 0.1 undercuts the bound" in err


class TestFrequencyScale:
    """Times scale as 1/omega, so ratios and exit codes do not depend on it."""

    @pytest.mark.parametrize("omega0", ["1e6", "1e9", "1e12"])
    def test_fig1_rows_match_unit_scale(self, capsys, omega0):
        grid = ["--stop", "4", "--step", "0.5", "--json"]
        _, unit, _ = run(capsys, "fig1", *grid)
        code, out, err = run(capsys, "fig1", "--omega0", omega0, *grid)
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 9
        for expected, row in zip(json.loads(unit)["rows"], rows):
            assert row["t_perp"] is not None
            assert row["ratio"] == pytest.approx(expected["ratio"], rel=1e-9)

    @pytest.mark.parametrize("argv", [
        ["mixture-demo", "--omega", "1e6"],
        ["mixture-demo", "--omega", "1e8"],
        ["mixture-demo", "--omega", "1e10"],
        ["mixture-demo", "--omega", "1e12"],
        ["ent-scan", "--omega0", "1e8", "--levels", "3", "--subsystems", "2"],
    ])
    def test_checked_against_the_closed_form_at_high_frequency(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == argv[0]

    @pytest.mark.parametrize("omega", ["1e160", "1e300"])
    def test_mixture_demo_where_squared_energies_overflow(self, capsys, omega):
        code, out, err = run(capsys, "mixture-demo", "--omega", omega, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["t_perp"] == pytest.approx(math.pi / float(omega), rel=1e-8)

    def test_groups_found_at_high_frequency(self, capsys):
        argv = ["groups", "--groups", "2", "--per-group", "2", "--json"]
        _, unit, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--omega0", "1e8")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["status"] == "Found"
        assert payload["ratio"] == pytest.approx(json.loads(unit)["ratio"], rel=1e-9)

    def test_mixture_demo_short_of_its_zero_at_extreme_frequency(self, capsys):
        # a bandwidth of 1e300 squared overflows: the solver's bound is formed
        # as (rate * step)^2 so that branch and bound stays finite
        code, out, err = run(capsys, "mixture-demo", "--omega", "1e300", "--horizon", "2e-300")
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: mixture demo: measured t_perp None")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzed tperp files
# ---------------------------------------------------------------------------

#: Small values, a subnormal, and magnitudes whose squares, sums or
#: differences overflow.
_ENTRIES = (0.0, 0.5, -0.5, 1.0, -1.0, 1e-320, 1e154, -1e154, 1e200, 1e300, -1e300,
            1e308, -1e308)
_PAIRS = st.tuples(st.sampled_from(_ENTRIES), st.sampled_from(_ENTRIES)).map(list)


@st.composite
def tperp_systems(draw):
    """A wire-format system of dimension 1-3: a drawn or a valid pure state or
    density matrix, and a Hermitian Hamiltonian, or one with an entry nudged
    within or past the Hermitian tolerance or redrawn, entries from ``_ENTRIES``."""
    dim = draw(st.integers(1, 3))

    def hermitian():
        rows = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                re, im = draw(_PAIRS) if i < j else (draw(st.sampled_from(_ENTRIES)), 0.0)
                rows[i][j], rows[j][i] = [re, im], [re, -im]
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        change = draw(st.sampled_from([None, 1e-13, 1e-11, "redraw"]))
        if change == "redraw":
            rows[i][j] = draw(_PAIRS)
        elif change:
            rows[i][j] = [rows[i][j][0] + change * max(1.0, abs(rows[i][j][0])), rows[i][j][1]]
        return [pair for row in rows for pair in row]

    kind = draw(st.sampled_from(["amplitudes", "basis", "matrix", "maximally mixed"]))
    system = {"dims": [dim]}
    if kind == "amplitudes":
        system["amplitudes"] = [draw(_PAIRS) for _ in range(dim)]
    elif kind == "basis":
        system["amplitudes"] = [[1.0, 0.0] if i == 0 else [0.0, 0.0] for i in range(dim)]
    elif kind == "matrix":
        system["matrix"] = hermitian()
    else:
        system["matrix"] = [[1.0 / dim if i == j else 0.0, 0.0]
                            for i in range(dim) for j in range(dim)]
    system["hamiltonian"] = hermitian()
    return system


_WIDE_BANDWIDTH_FILE = {"dims": [2], "amplitudes": [[1, 0], [0, 0]],
               "hamiltonian": [[1e300, 0], [1e300, 0], [1e300, 0], [-1e300, 0]]}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=tperp_systems(), as_json=st.booleans())
# a bandwidth of 2.8e300, where the squared bandwidth overflows
@example(system=_WIDE_BANDWIDTH_FILE, as_json=False)
# overflow in the norm, the trace and the spectral range
@example(system={"dims": [2], "amplitudes": [[1e200, 0], [0, 0]],
                 "hamiltonian": [[0, 0], [0, 0], [0, 0], [1, 0]]}, as_json=False)
@example(system={"dims": [2], "matrix": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]],
                 "hamiltonian": [[0, 0], [0, 0], [0, 0], [1, 0]]}, as_json=False)
@example(system={"dims": [3], "amplitudes": [[1, 0], [0, 0], [0, 0]],
                 "hamiltonian": [[x, 0] for x in (1e308, 1e308, 1e308, 1e308, 1e308, -1e308,
                                                  1e308, -1e308, 1e308)]}, as_json=False)
# a weight of ~1e-308 on a level at 1e308, whose phases would overflow
@example(system={"dims": [3], "amplitudes": [[1, 0], [0, 0], [0, 0]],
                 "hamiltonian": [[0, 0], [-1e154, -0.5], [0.5, -1], [-1e154, 0.5], [1e308, 0],
                                 [-1e154, -0.5], [0.5, 1], [-1e154, 0.5], [1.0000000000001, 0]]},
         as_json=False)
def test_tperp_file_ends_in_an_exit_code(capsys, tmp_path, system, as_json):
    # tier-1 turns numpy warnings into errors, so a warning fails here too
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, _, err = run(capsys, "tperp", str(path), *(["--json"] if as_json else []))
    assert code in (0, 2, 3, 4)
    assert err.count("\n") <= 1
    assert (code == 0) == (err == "")


def test_tperp_at_extreme_bandwidth_reports_its_minimum(capsys, tmp_path):
    # NotFound: the survival of |0> under 1e300 [[1, 1], [1, -1]] bottoms out
    # at (p1 - p0)^2 = 1/2, its eigenbasis populations being cos^2 and sin^2 of pi/8
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_WIDE_BANDWIDTH_FILE))
    code, out, err = run(capsys, "tperp", str(path), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["status"] == "NotFound"
    assert payload["min_overlap"] == pytest.approx(0.5, abs=1e-15)


@pytest.fixture(scope="module")
def cli_mixed_file(tmp_path_factory):
    """The ``cli`` benchmark workload's D = 64 full-rank mixed system, seed 1."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
        return module.Cli(1, tmp_path_factory.mktemp("cli")).mixed_file
    finally:
        del sys.modules[spec.name]


def test_tperp_reports_the_cli_workload_minimum(capsys, cli_mixed_file):
    code, out, err = run(capsys, "tperp", str(cli_mixed_file))
    assert (code, err) == (0, "")
    assert out == ("ground_shift=14.6524630363 applied\n"
                   "NotFound min_overlap=0.0153083430888 t_at_min=3.1765283647 "
                   "horizon=3.89527672722\n")
    code, out, _ = run(capsys, "tperp", str(cli_mixed_file), "--json")
    assert json.loads(out)["t_at_min"] == pytest.approx(3.176528364699269, abs=1e-13)


def test_tperp_flat_minimum_holds_under_ulp_horizon_changes(capsys, cli_mixed_file):
    # Located by its value alone, this flat minimum (s'' ~ 0.04) was fixed only
    # to ~1e-8, and its printed t_at_min flipped between 3.17652835379 and
    # 3.17652837839 as the horizon moved by ulps.  Newton steps on s' land
    # within 1e-9 of the 40-digit root of s', on every horizon alike (the
    # 1e-13 * s(0) value contract alone allows ~4e-7).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    state, h = load_system(str(cli_mixed_file))[:2]
    evals, evecs = ground_shift(h).eigensystem()
    coeffs = np.abs(evecs.conj().T @ state.matrix @ evecs) ** 2
    upper = np.triu_indices(evals.size, 1)
    terms = [(mpmath.mpf(float(2.0 * m)), mpmath.mpf(float(g)))
             for m, g in zip(coeffs[upper], np.subtract.outer(evals, evals)[upper])]
    slope = lambda t: -mpmath.fsum(m * g * mpmath.sin(g * t) for m, g in terms)
    root = float(mpmath.findroot(slope, mpmath.mpf("3.17652836")))
    horizons = [3.8952767272236937]  # the default, 20 speed-limit times
    for direction in (-math.inf, math.inf):
        horizon = horizons[0]
        for _ in range(4):
            horizon = math.nextafter(horizon, direction)
            horizons.append(horizon)
    for horizon in horizons:
        code, out, _ = run(capsys, "tperp", str(cli_mixed_file), "--horizon", repr(horizon),
                           "--json")
        t_at_min = json.loads(out)["t_at_min"]
        assert code == 0 and f"{t_at_min:.12g}" == "3.1765283647"
        assert abs(t_at_min - root) <= 1e-9


#: Flag values from zero and one to the edges of the float range.
_FLOATS = st.sampled_from(["0", "1e-300", "-1e-300", "1e-13", "0.5", "1", "1e300", "nan", "inf"])


@st.composite
def qsl_argvs(draw):
    """An invocation of one of the six subcommands, its numeric flags drawn
    from ``_FLOATS`` and its sizes kept small (groups x per-group <= 8)."""
    command = draw(st.sampled_from(sorted(JSON_KEYS)))

    def flag(name, values=_FLOATS, required=False):
        # "--flag=value": argparse would read a bare "-1e-300" as an option
        return [f"{name}={draw(values)}"] if required or draw(st.booleans()) else []

    def switch(name):
        return [name] if draw(st.booleans()) else []

    if command == "bound":
        args = flag("--energy", required=True) + flag("--spread", required=True)
    elif command == "tperp":
        args = ["QUBIT"] + flag("--horizon") + flag("--tol")
    elif command == "fig1":
        args = (flag("--qubits", st.sampled_from(["1", "2", "3"])) + flag("--omega0")
                + flag("--start") + flag("--stop") + flag("--step") + flag("--horizon")
                + switch("--limit"))
    elif command == "ent-scan":
        args = (flag("--levels", st.sampled_from(["1", "2", "3", "2,3"]))
                + flag("--subsystems", st.sampled_from(["1", "2", "1,3"])) + flag("--omega0")
                + flag("--cap", st.sampled_from(["-1", "0", "8", "1024", "100000"]))
                + switch("--no-verify"))
    elif command == "mixture-demo":
        args = (flag("--omega") + flag("--samples", st.sampled_from(["-1", "0", "1", "5"]))
                + flag("--horizon") + flag("--tol"))
    else:
        groups = draw(st.integers(0, 4))
        per_group = draw(st.integers(0, 8 // max(groups, 1)))
        args = ([f"--groups={groups}", f"--per-group={per_group}"] + flag("--omega0")
                + flag("--omega") + flag("--horizon") + flag("--tol")
                + flag("--cap", st.sampled_from(["0", "16", "4096", "100000"]))
                + switch("--no-verify"))
    return [command, *args, *switch("--json")]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=qsl_argvs())
def test_argv_ends_in_an_exit_code(capsys, tmp_path, argv):
    # tier-1 turns numpy warnings into errors, so a warning fails here too
    qubit = tmp_path / "qubit.json"
    write_saturating_qubit(qubit)
    code, _, err = run(capsys, *[str(qubit) if a == "QUBIT" else a for a in argv])
    assert code in (0, 2, 3, 4)
    assert err.count("\n") <= 1
    assert (code == 0) == (err == "")


#: SHA-256 of the CSV each invocation writes with its default options.  The
#: published tables are compared byte for byte: a change in any printed digit
#: shows here.
CSV_DIGESTS = {
    ("fig1",): "baba0221ea5a24c06a6d20b4c51794348d38ef7376a2616575246ee31d932875",
    ("fig1", "--limit"): "d1c658d8a10ba2baff4ccc4115481d321726a63cceecb31175949f95b9e9ae2f",
    ("ent-scan",): "d4df6fdd198195f5669e1b4da575f0378f8e21a829e97a4f7fecf165391621d1",
    ("mixture-demo",): "f7dfeab7e4527391ce4f78bfb3fe1c2d92528016296c830ab76c1bd87a04d353",
}


@pytest.mark.parametrize("argv, digest", CSV_DIGESTS.items())
def test_default_csv_bytes(capsys, tmp_path, argv, digest):
    path = tmp_path / "out.csv"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
