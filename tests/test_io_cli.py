import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phasecov import io as pio
from phasecov import cli
from phasecov.cli import main
from phasecov.covariance import CovarianceTable, estimate_covariance
from phasecov.errors import ConfigError, FormatError
from phasecov.gaussian import GaussianDualState
from phasecov.graph import (
    CUSTOM,
    PRESETS,
    ModelSpec,
    OptimizerSettings,
    SymmetryGroup,
    build_foveal_edges,
    model_preset,
    preset_of,
)
from phasecov.grid import white_noise
from phasecov.wavelets import LOWPASS


class TestFieldFile:
    def test_round_trip_real(self, tmp_path):
        x = white_noise(16, 1.0, 0)
        path = tmp_path / "x.phkf"
        pio.write_field(path, x)
        back = pio.read_field(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, x)

    def test_round_trip_complex(self, tmp_path):
        x = white_noise(8, 1.0, 1) + 1j * white_noise(8, 1.0, 2)
        path = tmp_path / "x.phkf"
        pio.write_field(path, x)
        assert np.array_equal(pio.read_field(path), x)

    def test_bit_exact_bytes(self, tmp_path):
        x = white_noise(16, 1.0, 3)
        p1 = tmp_path / "a.phkf"
        p2 = tmp_path / "b.phkf"
        pio.write_field(p1, x)
        pio.write_field(p2, x)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.phkf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            pio.read_field(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.phkf"
        good = tmp_path / "good.phkf"
        pio.write_field(good, np.zeros((4, 4)))
        data = bytearray(good.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            pio.read_field(path)

    def test_rejects_truncated_payload(self, tmp_path):
        good = tmp_path / "good.phkf"
        pio.write_field(good, np.zeros((4, 4)))
        bad = tmp_path / "bad.phkf"
        bad.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(FormatError):
            pio.read_field(bad)

    def test_rejects_every_truncation(self, tmp_path):
        good = tmp_path / "good.phkf"
        pio.write_field(good, white_noise(4, 1.0, 7) + 1j)
        data = good.read_bytes()
        bad = tmp_path / "bad.phkf"
        for cut in range(len(data)):
            bad.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                pio.read_field(bad)

    @given(side=st.integers(2, 4).map(lambda p: 2 ** p),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_any_side(self, side, seed, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fields")
        x = white_noise(side, 2.0, seed)
        pio.write_field(tmp / "x.phkf", x)
        assert np.array_equal(pio.read_field(tmp / "x.phkf"), x)


class TestTableFile:
    def test_round_trip(self, tmp_path):
        spec = model_preset("B", J=2, Q=4)
        bank_side = 16
        from phasecov.wavelets import build_bump_bank

        bank = build_bump_bank(bank_side, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        table = estimate_covariance(white_noise(bank_side, 1.0, 6), edges, spec, bank)
        path = tmp_path / "t.phkt"
        pio.write_table(path, table)
        back = pio.read_table(path)
        assert back.cov == table.cov
        assert back.means == table.means
        assert back.diag == table.diag
        assert back.group == table.group

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.phkt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError):
            pio.read_table(path)


    def _table_bytes(self, tmp_path):
        from phasecov.covariance import normalize_correlations
        from phasecov.graph import Edge
        from phasecov.wavelets import LOWPASS, build_bump_bank

        spec = model_preset("B", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = [Edge((1, 0), 1, (1, 1), 0, (1, 0)), Edge(LOWPASS, 1, LOWPASS, 1, (0, 0))]
        table = normalize_correlations(estimate_covariance(white_noise(16, 1.0, 8), edges, spec, bank))
        pio.write_table(tmp_path / "t.phkt", table)
        return (tmp_path / "t.phkt").read_bytes()

    def test_rejects_every_truncation(self, tmp_path):
        data = self._table_bytes(tmp_path)
        bad = tmp_path / "bad.phkt"
        for cut in range(len(data)):
            bad.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                pio.read_table(bad)

    def test_rejects_trailing_bytes(self, tmp_path):
        bad = tmp_path / "bad.phkt"
        bad.write_bytes(self._table_bytes(tmp_path) + b"\x00")
        with pytest.raises(FormatError):
            pio.read_table(bad)

    def test_rejects_malformed_header(self, tmp_path):
        blob = b'{"edges": 3}'
        bad = tmp_path / "bad.phkt"
        bad.write_bytes(b"PHKT" + (1).to_bytes(4, "little") + len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(FormatError):
            pio.read_table(bad)


finite = st.floats(allow_nan=False, allow_infinity=False)
channels = st.one_of(st.just(LOWPASS), st.tuples(st.integers(1, 5), st.integers(0, 15)))
vertex_classes = st.tuples(channels, st.integers(-3, 3))


@st.composite
def fields(draw):
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    elements = finite if dtype == np.float64 else st.complex_numbers(
        allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                           elements=elements))


@st.composite
def tables(draw):
    edge_keys = st.tuples(channels, st.integers(-3, 3), channels, st.integers(-3, 3),
                          st.tuples(st.integers(-64, 64), st.integers(-64, 64)))
    diag = draw(st.dictionaries(vertex_classes, finite, max_size=4))
    norm_diag = draw(st.one_of(st.none(), st.fixed_dictionaries({c: finite for c in diag})))
    return CovarianceTable(
        means=draw(st.dictionaries(vertex_classes, st.complex_numbers(
            allow_nan=False, allow_infinity=False), max_size=4)),
        cov=draw(st.dictionaries(edge_keys, st.complex_numbers(
            allow_nan=False, allow_infinity=False), max_size=6)),
        diag=diag,
        group=SymmetryGroup(*draw(st.tuples(*[st.booleans()] * 4))),
        normalized=draw(st.booleans()),
        norm_diag=norm_diag,
        source=draw(st.text(max_size=8)),
    )


def read_or_format_error(reader, path):
    """The reader's result, or None when it raised FormatError; any other
    exception propagates and fails the test."""
    try:
        return reader(path)
    except FormatError:
        return None


class TestReaderFuzz:
    """Round trips and damaged copies of .phkf and .phkt files: a reader
    returns the data or raises FormatError, never anything else."""

    @given(x=fields())
    @settings(max_examples=25, deadline=None)
    def test_field_round_trip_and_every_prefix(self, x, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("field")
        pio.write_field(tmp / "x.phkf", x)
        back = pio.read_field(tmp / "x.phkf")
        assert back.dtype == x.dtype and np.array_equal(back, x)
        data = (tmp / "x.phkf").read_bytes()
        for cut in range(len(data)):
            (tmp / "cut.phkf").write_bytes(data[:cut])
            with pytest.raises(FormatError):
                pio.read_field(tmp / "cut.phkf")

    @given(table=tables())
    @settings(max_examples=25, deadline=None)
    def test_table_round_trip_and_every_prefix(self, table, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("table")
        pio.write_table(tmp / "t.phkt", table)
        back = pio.read_table(tmp / "t.phkt")
        assert (back.means, back.cov, back.diag, back.norm_diag) == (
            table.means, table.cov, table.diag, table.norm_diag)
        assert (back.group, back.normalized, back.source) == (
            table.group, table.normalized, table.source)
        data = (tmp / "t.phkt").read_bytes()
        for cut in range(len(data)):
            (tmp / "cut.phkt").write_bytes(data[:cut])
            with pytest.raises(FormatError):
                pio.read_table(tmp / "cut.phkt")

    @given(x=fields(), table=tables(), where=st.floats(0, 1, exclude_max=True),
           byte=st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_one_changed_byte(self, x, table, where, byte, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("damaged")
        for name, write, read, obj in (("x.phkf", pio.write_field, pio.read_field, x),
                                       ("t.phkt", pio.write_table, pio.read_table, table)):
            write(tmp / name, obj)
            data = bytearray((tmp / name).read_bytes())
            data[int(where * len(data))] = byte
            (tmp / name).write_bytes(bytes(data))
            read_or_format_error(read, tmp / name)


class TestConfig:
    def test_parse_preset(self):
        cfg = pio.parse_config({"model": {"name": "B", "J": 3, "Q": 8}})
        assert cfg["spec"].name == "B"
        assert cfg["spec"].J == 3
        assert cfg["spec"].k_max == 1

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError):
            pio.parse_config({"model": {"name": "A"}, "bogus": 1})

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigError):
            pio.parse_config({"model": {"name": "A", "window": 3}})

    def test_unknown_group_key_rejected(self):
        with pytest.raises(ConfigError):
            pio.parse_config({"model": {"name": "A", "group": {"mirror": True}}})

    def test_spec_round_trip(self):
        spec = model_preset("C", J=3, Q=8)
        doc = pio.spec_to_json(spec)
        back = pio.parse_config(doc)["spec"]
        assert back.name == spec.name
        assert back.J == spec.J
        assert back.delta_ell == spec.delta_ell
        assert back.optimizer.max_iter == spec.optimizer.max_iter
        # every model, with non-default values of every field it reads
        tuned = OptimizerSettings(max_iter=7, memory=3, c1=1e-3, c2=0.5, gtol=1e-6,
                                  eps_ratio=0.0, restarts=2, seed=2 ** 64 - 1)
        specs = [
            replace(model_preset("A", J=3, Q=8, delta_n=2),
                    optimizer=OptimizerSettings(restarts=2, seed=9)),
            replace(model_preset("B", J=3, Q=8, delta_n=1, delta_ell=1,
                                 group=SymmetryGroup(sign_change=True)), optimizer=tuned),
            replace(model_preset("C", J=2, Q=4, delta_n=1, delta_ell=2), optimizer=tuned),
            replace(model_preset("D", J=3, Q=8, group=SymmetryGroup(
                rotations=True, line_reflection=True)), optimizer=tuned),
            ModelSpec(name="mine", J=2, Q=4, k_min=-1, k_max=2, delta_n=1, delta_j=1,
                      delta_ell=1, group=SymmetryGroup(central_reflection=True),
                      optimizer=tuned),
        ]
        for spec in specs:
            doc = json.loads(json.dumps(pio.spec_to_json(spec)))
            preset = preset_of(spec.name)
            assert set(doc["model"]) == {"name", "group", *preset.reads}
            assert set(doc["optimizer"]) == set(preset.optimizer)
            assert pio.parse_config(doc)["spec"] == spec

    def test_seed_and_restart_overrides(self):
        cfg = pio.parse_config({"model": {"name": "B"}, "seed": 11, "restarts": 3})
        assert cfg["spec"].optimizer.seed == 11
        assert cfg["spec"].optimizer.restarts == 3


    @pytest.mark.parametrize("doc", [
        {"restarts": "x"},
        {"seed": "abc"},
        {"seed": -1},
        {"restarts": 0},
        {"optimizer": {"max_iter": -3, "memory": 0}},
        {"optimizer": {"max_iter": "many"}},
        {"optimizer": {"max_iter": 2.5}},
        {"optimizer": {"memory": True}},
        {"optimizer": {"c1": 0.9, "c2": 0.1}},
        {"optimizer": {"c1": 0.0}},
        {"optimizer": {"c2": 1.0}},
        {"optimizer": {"c1": 10 ** 400}},
        {"optimizer": {"gtol": -1e-8}},
        {"optimizer": {"gtol": float("inf")}},
        {"optimizer": {"eps_ratio": float("nan")}},
        {"optimizer": {"eps_ratio": "0"}},
        {"optimizer": []},
        {"sample_count": "x"},
        {"seed": 2 ** 64},
    ])
    def test_rejects_bad_optimizer_settings(self, doc):
        with pytest.raises(ConfigError):
            pio.parse_config({"model": {"name": "B"}, **doc})

    @pytest.mark.parametrize("model", [
        {"name": "B", "J": "x"},
        {"name": "B", "J": 3.5},
        {"name": "B", "Q": 0},
        {"name": "custom", "k_max": 2.0},
        {"name": "B", "delta_n": "2"},
        {"name": "custom", "delta_j": -1},
        {"name": "B", "group": {"rotations": "false"}},
        {"name": "custom", "group": {"sign_change": 1}},
        {"name": 3},
    ])
    def test_rejects_bad_model_section(self, model):
        with pytest.raises(ConfigError):
            pio.parse_config({"model": model})

    @pytest.mark.parametrize("evaluation", [
        {"k_lo": 0.5}, {"k_hi": "x"}, {"delta_n": -1}, {"delta_n": True}, {"a_max": -2},
        {"j_list": "ab"}, {"j_list": []}, {"j_list": [0]}, {"j_list": [1, "2"]},
        {"q_list": 2}, {"q_list": []}, {"q_list": [1.5]}, {"q_list": [0]},
    ])
    def test_rejects_bad_evaluation_section(self, evaluation):
        with pytest.raises(ConfigError, match=next(iter(evaluation))):
            pio.parse_config({"model": {"name": "B"}, "evaluation": evaluation})

    def test_evaluation_section_accepted(self):
        ev = {"k_lo": -1, "k_hi": 3, "delta_n": 0, "a_max": 0, "j_list": [1, 2], "q_list": [2]}
        assert pio.parse_config({"model": {"name": "B"}, "evaluation": ev})["evaluation"] == ev

    def test_seed_range(self):
        doc = {"model": {"name": "A"}, "seed": 2 ** 64 - 1}
        assert pio.parse_config(doc)["spec"].optimizer.seed == 2 ** 64 - 1
        with pytest.raises(ConfigError, match="optimizer seed"):
            pio.parse_config({**doc, "seed": 2 ** 64})

    def test_zero_tolerances_accepted(self):
        cfg = pio.parse_config({"model": {"name": "B"}, "optimizer": {"gtol": 0, "eps_ratio": 0.0}})
        assert cfg["spec"].optimizer.gtol == 0
        assert cfg["spec"].optimizer.eps_ratio == 0.0


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10 ** 400)
    | st.floats(allow_nan=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)


def sections(keys, extra=()):
    """JSON objects over the known ``keys`` (and an unknown one), or any JSON value."""
    names = st.sampled_from(sorted(keys) + ["bogus"])
    return st.dictionaries(names, st.one_of(json_values, *extra), max_size=4) | json_values


@st.composite
def config_docs(draw):
    from phasecov.io import _EVAL_KEYS, _GROUP_KEYS, _MODEL_KEYS, _OPT_KEYS

    names = st.sampled_from(["A", "b", "C", "D", "custom", "Z"])
    model = sections(_MODEL_KEYS, (names, sections(_GROUP_KEYS)))
    parts = {"model": model, "optimizer": sections(_OPT_KEYS),
             "evaluation": sections(_EVAL_KEYS), "seed": json_values,
             "restarts": json_values, "bogus": json_values}
    keys = draw(st.lists(st.sampled_from(sorted(parts)), unique=True, max_size=4))
    doc = {key: draw(parts[key]) for key in keys}
    return doc if draw(st.booleans()) else draw(st.one_of(st.just(doc), json_values))


class TestConfigFuzz:
    """Generated JSON-like documents: ``parse_config`` returns a validated
    spec or raises ConfigError, never anything else."""

    @given(doc=config_docs())
    @settings(max_examples=300, deadline=None)
    def test_validated_spec_or_config_error(self, doc):
        try:
            cfg = pio.parse_config(doc)
        except ConfigError:
            return
        spec = cfg["spec"]
        spec.validate()
        spec.optimizer.validate()
        assert isinstance(cfg["evaluation"], dict)


class TestPgm:
    def test_constant_field(self, tmp_path):
        path = tmp_path / "c.pgm"
        pio.export_pgm(np.full((8, 8), 2.5), path)
        side = json.loads((tmp_path / "c.pgm.json").read_text())
        assert side["min"] == side["max"] == 2.5
        back = pio.import_pgm(path)
        assert np.allclose(back, 2.5)

    def test_round_trip_within_quantization(self, tmp_path):
        x = white_noise(16, 1.0, 7)
        path = tmp_path / "x.pgm"
        pio.export_pgm(x, path)
        back = pio.import_pgm(path)
        bound = (x.max() - x.min()) / 65535.0
        assert np.max(np.abs(back - x)) <= 0.5 * bound + 1e-12

    def test_format_arithmetic(self, tmp_path):
        x = white_noise(256, 1.0, 8)
        path = tmp_path / "x.pgm"
        pio.export_pgm(x, path)
        data = path.read_bytes()
        header = f"P5\n256 256\n65535\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + 131072
        assert len(header.split()) == 4  # magic, width, height, maxval

    def test_payload_starting_with_whitespace_bytes(self, tmp_path):
        # the first pixel scales to 0x2020 and the second to 0x0a0a: both
        # whitespace byte pairs that a token split would strip
        x = np.zeros((4, 4))
        x[0, 0], x[0, 1], x[3, 3] = 0x2020, 0x0A0A, 65535.0
        path = tmp_path / "w.pgm"
        pio.export_pgm(x, path)
        assert path.read_bytes().startswith(b"P5\n4 4\n65535\n\x20\x20\x0a\x0a")
        assert np.array_equal(pio.import_pgm(path), x)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        pio.export_pgm(white_noise(8, 1.0, 9), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            pio.import_pgm(path)

    @pytest.mark.parametrize("sidecar", [None, "{", '{"min": 0.0}', "[1, 2]",
                                         '{"min": 1.0, "max": "2"}'])
    def test_missing_or_malformed_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "s.pgm"
        pio.export_pgm(white_noise(8, 1.0, 10), path)
        side = tmp_path / "s.pgm.json"
        if sidecar is None:
            side.unlink()
        else:
            side.write_text(sidecar)
        with pytest.raises(FormatError):
            pio.import_pgm(path)


FLOAT_MAX = sys.float_info.max  # a Python float: int comparisons stay exact


class TestPgmFuzz:
    """PGM round trips within 16-bit quantization; every truncated file and
    every sidecar that is not a finite ``min <= max`` raise FormatError."""

    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                        elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_and_every_truncation(self, x, tmp_path_factory):
        path = tmp_path_factory.mktemp("pgm") / "x.pgm"
        pio.export_pgm(x, path)
        back = pio.import_pgm(path)
        lo, hi = float(x.min()), float(x.max())
        quantum = (hi - lo) / 65535.0
        assert back.shape == x.shape
        slack = 1e-15 * max(abs(lo), abs(hi))  # rounding of lo + raw / 65535 * (hi - lo)
        assert np.max(np.abs(back - x)) <= 0.5 * quantum * (1 + 1e-9) + slack
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                pio.import_pgm(path)

    @given(sidecar=st.one_of(
        st.text(max_size=12),
        json_values.map(json.dumps),
        st.fixed_dictionaries({"min": json_values, "max": json_values}).map(json.dumps),
    ))
    @settings(max_examples=200, deadline=None)
    def test_sidecar_is_valid_or_format_error(self, sidecar, tmp_path_factory):
        path = tmp_path_factory.mktemp("sidecar") / "s.pgm"
        pio.export_pgm(np.arange(6.0).reshape(2, 3), path)
        (path.parent / "s.pgm.json").write_text(sidecar)
        try:
            doc = json.loads(sidecar)
        except ValueError:
            doc = None
        bounds = [doc.get(k) for k in ("min", "max")] if isinstance(doc, dict) else [None]
        in_range = [type(v) in (int, float) and abs(v) <= FLOAT_MAX for v in bounds]
        if all(in_range) and bounds[0] <= bounds[1] and bounds[1] - bounds[0] <= FLOAT_MAX:
            back = pio.import_pgm(path)
            tol = 1e-12 * max(abs(v) for v in bounds)
            assert back.dtype == np.float64
            assert abs(back.min() - bounds[0]) <= tol and abs(back.max() - bounds[1]) <= tol
        else:
            with pytest.raises(FormatError):
                pio.import_pgm(path)


class TestCsv:
    def test_float_format_round_trips(self):
        for v in (1 / 3, 1e-17, 123456.789, np.pi):
            assert float(pio.format_float(v)) == v

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        pio.write_csv(path, ["a", "b"], [(1, 0.5), (2, 1 / 3)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) == 1 / 3


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def _field(self, tmp_path, side=16, seed=0, name="x.phkf"):
        x = white_noise(side, 1.0, seed)
        path = tmp_path / name
        pio.write_field(path, x)
        return path, x

    def test_cov_runs_and_is_deterministic(self, tmp_path, capsys):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["cov", str(path), "--config", cfg, "--out", str(out1)]) == 0
        assert main(["cov", str(path), "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "table.phkt").read_bytes() == (out2 / "table.phkt").read_bytes()
        text = capsys.readouterr().out
        assert "|E_G|/d" in text

    def test_cov_reports_model_a_ratio(self, tmp_path, capsys):
        # the full-size count check lives in the acceptance suite; here the
        # summary arithmetic on a small grid
        path, _ = self._field(tmp_path, side=16)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "A", "J": 2, "Q": 4}})
        assert main(["cov", str(path), "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        summary = (tmp_path / "o" / "summary.txt").read_text()
        n_edges = int(summary.split("|E_G| = ")[1].split("\n")[0])
        ratio = float(summary.split("|E_G|/d = ")[1].split("\n")[0])
        assert ratio == pytest.approx(n_edges / 256, rel=1e-6)

    def test_missing_config_is_config_error(self, tmp_path):
        path, _ = self._field(tmp_path)
        assert main(["cov", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["cov", "x.phkf", "--threads", "2"], ["cov", "x.phkf", "--seed", "1"],
        ["gauss-fit", "x.phkf", "--restarts", "2"], ["spectrum", "x.phkf", "--config", "c.json"],
        ["gauss-sample", "s.phkf", "--config", "c.json"], ["export", "x.phkf", "--seed", "1"]])
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_input_file_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["cov", str(tmp_path / "missing.phkf"), "--config", cfg]) == 4

    def test_bad_config_value_exit_code(self, tmp_path):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B"}, "restarts": "x"})
        assert main(["cov", str(path), "--config", cfg]) == 2

    def test_truncated_field_header_exit_code(self, tmp_path):
        path, _ = self._field(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["cov", str(path), "--config", cfg]) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf),
                                     complex(np.nan, 1.0)])
    def test_non_finite_field_exit_code(self, tmp_path, bad):
        # real fields carry NaN or +-inf; complex ones a non-finite imaginary part too
        path, x = self._field(tmp_path)
        x = x.astype(complex) if np.iscomplexobj(bad) else x
        x[3, 5] = bad
        pio.write_field(path, x)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["cov", str(path), "--config", cfg]) == 4

    @pytest.mark.parametrize("model", [
        {"J": "x"}, {"J": 3.5}, {"delta_n": "2"}, {"group": {"rotations": "false"}},
    ])
    def test_bad_model_section_exit_code(self, tmp_path, model):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", **model}})
        assert main(["cov", str(path), "--config", cfg]) == 2

    def test_unknown_config_key_exit_code(self, tmp_path):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B"}, "oops": 1})
        assert main(["cov", str(path), "--config", cfg]) == 2

    def test_synth_model_b_writes_everything(self, tmp_path):
        path, _ = self._field(tmp_path, seed=1)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4},
            "optimizer": {"max_iter": 15},
        })
        out = tmp_path / "synth"
        code = main(["synth", str(path), "--config", cfg, "--out", str(out),
                     "--restarts", "2", "--seed", "5"])
        assert code == 0
        assert (out / "sample_000.phkf").exists()
        assert (out / "sample_001.phkf").exists()
        assert (out / "losses.csv").read_text().startswith("restart,iterations,loss")
        assert (out / "loss_curves.csv").exists()
        best = (out / "best.txt").read_text().strip()
        assert best.startswith("sample_")

    def test_synth_losses_report_stop_reason_and_armijo_fallbacks(self, tmp_path, monkeypatch):
        results = []

        def synthesize(*args, **kw):
            results.append(cli_synthesize(*args, **kw))
            return results[-1]

        cli_synthesize = cli.synthesize
        monkeypatch.setattr(cli, "synthesize", synthesize)
        path, _ = self._field(tmp_path, seed=3)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4},
            "optimizer": {"max_iter": 6},
        })
        out = tmp_path / "synth"
        assert main(["synth", str(path), "--config", cfg, "--out", str(out),
                     "--restarts", "2", "--seed", "7"]) == 0
        (result,) = results
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == "restart,iterations,loss,stop_reason,armijo_fallbacks"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[3] for r in rows] == result.stop_reasons
        assert [int(r[4]) for r in rows] == result.armijo_fallbacks
        assert [float(r[2]) for r in rows] == [float(v) for v in result.losses]

    def test_synth_seed_reproducible(self, tmp_path):
        path, _ = self._field(tmp_path, seed=2)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4},
            "optimizer": {"max_iter": 10},
        })
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["synth", str(path), "--config", cfg, "--out", str(out),
                         "--restarts", "1", "--seed", "9"]) == 0
            outs.append((out / "sample_000.phkf").read_bytes())
        assert outs[0] == outs[1]

    def test_synth_parallel_matches_serial(self, tmp_path):
        path, _ = self._field(tmp_path, seed=12)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4},
            "optimizer": {"max_iter": 8},
        })
        outs = []
        for name, threads in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            assert main(["synth", str(path), "--config", cfg, "--out", str(out),
                         "--restarts", "2", "--seed", "3", "--threads", threads]) == 0
            outs.append((out / "sample_000.phkf").read_bytes()
                        + (out / "sample_001.phkf").read_bytes())
        assert outs[0] == outs[1]

    def test_synth_zero_restarts_rejected(self, tmp_path):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["synth", str(path), "--config", cfg, "--restarts", "0"]) == 2

    @pytest.mark.parametrize("model, flags", [
        ("B", ["--seed", "-1"]), ("A", ["--seed", "-1"]), ("A", ["--restarts", "0"])],
        ids=["B-negative-seed", "A-negative-seed", "A-zero-restarts"])
    def test_synth_bad_override_rejected(self, tmp_path, capsys, model, flags):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": model, "J": 2, "Q": 4}})
        out = tmp_path / "out"
        assert main(["synth", str(path), "--config", cfg, "--out", str(out), *flags]) == 2
        assert f"optimizer {flags[0][2:]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, threads", [("B", "0"), ("B", "-5"), ("A", "-5")])
    def test_synth_threads_below_one_rejected(self, tmp_path, model, threads):
        path, _ = self._field(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": model, "J": 2, "Q": 4}})
        out = tmp_path / "out"
        assert main(["synth", str(path), "--config", cfg, "--out", str(out),
                     "--threads", threads]) == 2
        assert not out.exists()

    def test_synth_model_a_gaussian_route(self, tmp_path):
        path, _ = self._field(tmp_path, side=16, seed=3)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1},
        })
        out = tmp_path / "ga"
        assert main(["synth", str(path), "--config", cfg, "--out", str(out),
                     "--restarts", "2"]) == 0
        assert (out / "sample_000.phkf").exists()
        assert (out / "spectrum.phkf").exists()
        assert not (out / "losses.csv").exists()  # no optimizer ran

    @pytest.mark.parametrize("seed, code", [(2 ** 64 - 1, 2), (2 ** 64 - 2, 0)])
    def test_synth_model_a_seed_range_checked_before_the_fit(self, tmp_path, capsys, seed, code):
        # two samples draw seeds seed and seed + 1, which must stay below 2^64
        path, _ = self._field(tmp_path, side=16, seed=3)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1}, "seed": seed, "restarts": 2,
        })
        out = tmp_path / "ga"
        assert main(["synth", str(path), "--config", cfg, "--out", str(out)]) == code
        if code:
            assert "run past 2^64 - 1" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert sorted(p.name for p in out.iterdir()) == [
                "fit.json", "sample_000.phkf", "sample_001.phkf", "spectrum.phkf"]

    def test_synth_model_a_not_converged_writes_then_exits_3(self, tmp_path, monkeypatch):
        path, _ = self._field(tmp_path, side=16, seed=3)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1},
        })
        state = GaussianDualState(
            betas={}, spectrum=np.ones((16, 16)), entropy=1.0, feasible=True, converged=False,
            constraint_error=2e-2, edge_keys=[], side=16)
        monkeypatch.setattr(cli, "fit_gaussian_from_field", lambda *args: state)
        out = tmp_path / "ga"
        assert main(["synth", str(path), "--config", cfg, "--out", str(out)]) == 3
        assert np.array_equal(pio.read_field(out / "spectrum.phkf"), state.spectrum)
        assert (out / "sample_000.phkf").exists()

    def test_gauss_fit_and_sample(self, tmp_path):
        path, _ = self._field(tmp_path, side=16, seed=4)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1},
        })
        out = tmp_path / "fit"
        assert main(["gauss-fit", str(path), "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "fit.json").read_text())
        assert meta["feasible"]
        out2 = tmp_path / "samples"
        assert main(["gauss-sample", str(out / "spectrum.phkf"), "--count", "3",
                     "--out", str(out2), "--seed", "1"]) == 0
        assert (out2 / "sample_002.phkf").exists()

    @pytest.mark.parametrize("spectrum, flags, code", [
        (np.ones((8, 8)), ["--seed", "-1"], 2),
        (np.ones((8, 8)), ["--count", "0"], 2),
        (np.ones((8, 8)), ["--count", "-3"], 2),
        (np.ones(8), [], 4),
        (np.ones((8, 4)), [], 4),
        (np.ones((2, 4, 4)), [], 4),
        (np.ones((8, 8)), ["--seed", str(2 ** 64)], 2),
        (np.ones((8, 8)), ["--seed", str(2 ** 64 - 1), "--count", "2"], 2),
    ], ids=["negative-seed", "zero-count", "negative-count", "1d", "8x4", "3d", "seed-2^64",
            "seeds-past-2^64"])
    def test_gauss_sample_bad_arguments_rejected(self, tmp_path, spectrum, flags, code):
        pio.write_field(tmp_path / "s.phkf", spectrum)
        out = tmp_path / "out"
        assert main(["gauss-sample", str(tmp_path / "s.phkf"), "--out", str(out), *flags]) == code
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cov", "synth", "gauss-fit", "eval", "gauss-test",
                                         "spectrum", "export"])
    def test_complex_field_read_only_with_zero_imaginary_part(self, tmp_path, capsys, command):
        # a complex field file whose imaginary part is exactly zero reads as
        # its real part; any other is refused, never truncated to it
        data = tmp_path / "data"
        data.mkdir()
        path = data / "x.phkf"
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A" if command == "gauss-fit" else "B", "J": 2, "Q": 4},
            **({"optimizer": {"max_iter": 3}} if command == "synth" else {})})
        x = white_noise(16, 1.0, 8)

        def run(field, out):
            pio.write_field(path, field)
            inputs = [str(data)] * 2 if command == "eval" else [str(path)]
            config = [] if command in ("spectrum", "export") else ["--config", cfg]
            target = out / "x.pgm" if command == "export" else out
            code = main([command, *inputs, *config, "--out", str(target)])
            return code, {f.name: f.read_bytes() for f in sorted(out.glob("*"))}

        (tmp_path / "real").mkdir()
        (tmp_path / "zero").mkdir()
        code, outputs = run(x, tmp_path / "real")
        assert code == 0 and outputs
        assert run(x + 0j, tmp_path / "zero") == (code, outputs)
        capsys.readouterr()
        assert run(x + 1e-9j, tmp_path / "nonzero")[0] == 2
        assert "must be real" in capsys.readouterr().err
        assert not (tmp_path / "nonzero").exists()

    @pytest.mark.parametrize("imag, code", [(0.0, 0), (1e-9, 4)])
    def test_gauss_sample_complex_spectrum(self, tmp_path, capsys, imag, code):
        spectrum = np.ones((8, 8)) + 1j * imag
        pio.write_field(tmp_path / "s.phkf", spectrum)
        out = tmp_path / "out"
        assert main(["gauss-sample", str(tmp_path / "s.phkf"), "--out", str(out)]) == code
        if code:
            assert "must be real" in capsys.readouterr().err
            assert not out.exists()
        else:
            real = tmp_path / "real"
            pio.write_field(tmp_path / "r.phkf", spectrum.real)
            assert main(["gauss-sample", str(tmp_path / "r.phkf"), "--out", str(real)]) == 0
            assert ((out / "sample_000.phkf").read_bytes()
                    == (real / "sample_000.phkf").read_bytes())

    def test_gauss_sample_largest_seed(self, tmp_path):
        pio.write_field(tmp_path / "s.phkf", np.ones((8, 8)))
        out = tmp_path / "out"
        assert main(["gauss-sample", str(tmp_path / "s.phkf"), "--out", str(out),
                     "--seed", str(2 ** 64 - 1), "--count", "1"]) == 0
        assert (out / "sample_000.phkf").exists()

    def test_gauss_fit_not_converged_writes_then_exits_3(self, tmp_path, monkeypatch):
        path, _ = self._field(tmp_path, side=16, seed=4)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1},
        })
        state = GaussianDualState(
            betas={}, spectrum=np.ones((16, 16)), entropy=1.0, feasible=True, converged=False,
            constraint_error=2e-2, edge_keys=[], side=16)
        monkeypatch.setattr(cli, "fit_gaussian_from_field", lambda *args: state)
        out = tmp_path / "fit"
        assert main(["gauss-fit", str(path), "--config", cfg, "--out", str(out)]) == 3
        assert np.array_equal(pio.read_field(out / "spectrum.phkf"), state.spectrum)
        meta = json.loads((out / "fit.json").read_text())
        assert meta["converged"] is False and meta["constraint_error"] == 2e-2

    def test_eval_outputs(self, tmp_path, capsys):
        refdir = tmp_path / "ref"
        moddir = tmp_path / "mod"
        refdir.mkdir()
        moddir.mkdir()
        for i in range(3):
            pio.write_field(refdir / f"r{i}.phkf", white_noise(16, 1.0, 10 + i))
            pio.write_field(moddir / f"m{i}.phkf", white_noise(16, 1.0, 20 + i))
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4},
            "evaluation": {"j_list": [1], "q_list": [1, 2], "a_max": 2},
        })
        out = tmp_path / "eval"
        assert main(["eval", str(refdir), str(moddir), "--config", cfg,
                     "--out", str(out)]) == 0
        # the window that ran: the CLI defaults, 2 * 4 * 2 * 9 band + 9 low-pass vertices
        assert "(window k_lo=0 k_hi=2 delta_n=1, |V|=153)" in capsys.readouterr().out
        errors = (out / "errors.csv").read_text().splitlines()
        assert errors[0] == "metric,j,q,mean,std"
        assert len(errors) == 1 + 2 + 1 * 2  # model, empirical + (j, q) grid
        profiles = (out / "profiles.csv").read_text().splitlines()
        assert profiles[0] == "k,j,a,value"
        assert len(profiles) == 1 + 2 * 1 * 3

    def test_eval_identical_dirs_zero_model_error(self, tmp_path, capsys):
        refdir = tmp_path / "same"
        refdir.mkdir()
        for i in range(3):
            pio.write_field(refdir / f"r{i}.phkf", white_noise(16, 1.0, 30 + i))
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4},
            "evaluation": {"j_list": [1], "q_list": [2], "a_max": 2},
        })
        out = tmp_path / "eval_same"
        assert main(["eval", str(refdir), str(refdir), "--config", cfg,
                     "--out", str(out)]) == 0
        rows = (out / "errors.csv").read_text().splitlines()
        model_row = [r for r in rows if r.startswith("model,")][0]
        assert float(model_row.split(",")[3]) == 0.0
        structure_rows = [r for r in rows if r.startswith("structure,")]
        assert all(float(r.split(",")[3]) == 0.0 for r in structure_rows)

    @pytest.mark.parametrize("evaluation", [{"k_hi": "x"}, {"j_list": "ab"}, {"delta_n": -1}])
    def test_eval_bad_evaluation_section_exit_code(self, tmp_path, capsys, evaluation):
        refdir = tmp_path / "ref"
        refdir.mkdir()
        pio.write_field(refdir / "r0.phkf", white_noise(16, 1.0, 40))
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "B", "J": 2, "Q": 4}, "evaluation": evaluation})
        assert main(["eval", str(refdir), str(refdir), "--config", cfg,
                     "--out", str(tmp_path / "eval")]) == 2
        assert f"evaluation {next(iter(evaluation))}" in capsys.readouterr().err

    def test_eval_missing_dir_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["eval", str(tmp_path / "none"), str(tmp_path / "none2"),
                     "--config", cfg]) == 4

    def test_gauss_test_verdicts(self, tmp_path, capsys):
        path, _ = self._field(tmp_path, side=32, seed=5)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["gauss-test", str(path), "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "consistent with Gaussian" in out

    def test_gauss_test_flags_spikes(self, tmp_path, capsys):
        x = np.zeros((32, 32))
        x[3, 7] = 40.0
        x[20, 11] = -32.0
        x[9, 28] = 25.0
        path = tmp_path / "spikes.phkf"
        pio.write_field(path, x)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "B", "J": 2, "Q": 4}})
        assert main(["gauss-test", str(path), "--config", cfg]) == 0
        assert "NON-GAUSSIAN" in capsys.readouterr().out

    def test_spectrum_command(self, tmp_path):
        path, _ = self._field(tmp_path, side=16, seed=6)
        out = tmp_path / "spec"
        assert main(["spectrum", str(path), "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "radius,log10_power"
        assert len(lines) > 2

    def test_export_command(self, tmp_path):
        path, x = self._field(tmp_path, side=16, seed=7)
        out = tmp_path / "img.pgm"
        assert main(["export", str(path), "--out", str(out)]) == 0
        back = pio.import_pgm(out)
        bound = (x.max() - x.min()) / 65535.0
        assert np.max(np.abs(back - x)) <= 0.5 * bound + 1e-12


class TestPresetSchema:
    """A configuration may set exactly what its model reads: each preset's
    edge builder reads the model fields in ``PRESETS``, model A's fit reads
    only the optimizer seed and restarts, and custom specs read everything."""

    @pytest.mark.parametrize("field", CUSTOM.reads)
    @pytest.mark.parametrize("name", [*PRESETS, "custom"])
    def test_model_field_read_or_rejected(self, tmp_path, capsys, name, field):
        if name == "custom":
            base = ModelSpec(J=2, Q=4, k_min=0, k_max=1, delta_n=1, delta_j=0, delta_ell=1)
        else:
            base = model_preset(name, J=2, Q=4)
        if field in preset_of(name).reads:
            changed = (replace(base, **{field: getattr(base, field) + 1}) if name == "custom"
                       else model_preset(name, **{"J": 2, "Q": 4, field: getattr(base, field) + 1}))
            keys = [e.key() for e in build_foveal_edges(base).edges]
            assert [e.key() for e in build_foveal_edges(changed).edges] != keys
            return
        with pytest.raises(ConfigError, match=field):
            model_preset(name, J=2, Q=4, **{field: getattr(base, field)})
        x = tmp_path / "x.phkf"
        pio.write_field(x, white_noise(16, 1.0, 0))
        # the preset's own value is still a key that nothing reads
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": name, "J": 2, "Q": 4, field: getattr(base, field)}})
        out = tmp_path / "out"
        assert main(["cov", str(x), "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and f"model {name}" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", [*PRESETS, "custom"])
    def test_cov_prints_edge_k_range(self, tmp_path, capsys, name):
        x = tmp_path / "x.phkf"
        pio.write_field(x, white_noise(16, 1.0, 1))
        cfg = pio.load_config(write_config(tmp_path / "cfg.json",
                                           {"model": {"name": name, "J": 2, "Q": 4}}))
        ks = {k for e in build_foveal_edges(cfg["spec"]).edges for k in (e.k, e.k2)}
        assert main(["cov", str(x), "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
        assert f"k=[{min(ks)},{max(ks)}]" in capsys.readouterr().out

    @pytest.mark.parametrize("key", sorted(set(CUSTOM.optimizer) - {"seed", "restarts"}))
    def test_model_a_rejects_optimizer_key(self, tmp_path, capsys, key):
        x = tmp_path / "x.phkf"
        pio.write_field(x, white_noise(16, 1.0, 2))
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1},
            "optimizer": {key: getattr(OptimizerSettings(), key)}})
        assert main(["gauss-fit", str(x), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_model_a_synth_rejects_threads(self, tmp_path, capsys):
        x = tmp_path / "x.phkf"
        pio.write_field(x, white_noise(16, 1.0, 3))
        cfg = write_config(tmp_path / "cfg.json", {"model": {"name": "A", "J": 2, "Q": 4}})
        out = tmp_path / "out"
        assert main(["synth", str(x), "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_model_a_synth_writes_gauss_fit_outputs(self, tmp_path):
        x = tmp_path / "x.phkf"
        pio.write_field(x, white_noise(16, 1.0, 4))
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"name": "A", "J": 2, "Q": 4, "delta_n": 1}, "seed": 5, "restarts": 2})
        fit, synth, samples = tmp_path / "fit", tmp_path / "synth", tmp_path / "samples"
        assert main(["gauss-fit", str(x), "--config", cfg, "--out", str(fit)]) == 0
        assert main(["synth", str(x), "--config", cfg, "--out", str(synth)]) == 0
        assert main(["gauss-sample", str(fit / "spectrum.phkf"), "--seed", "5", "--count", "2",
                     "--out", str(samples)]) == 0
        for name in ("fit.json", "spectrum.phkf"):
            assert (synth / name).read_bytes() == (fit / name).read_bytes()
        for i in range(2):
            name = f"sample_{i:03d}.phkf"
            assert (synth / name).read_bytes() == (samples / name).read_bytes()
