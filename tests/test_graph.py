import pytest

from phasecov.errors import ConfigError
from phasecov.graph import (
    ModelSpec,
    PRESETS,
    SymmetryGroup,
    ball_offsets,
    build_foveal_edges,
    circular_distance,
    model_preset,
)


class TestWindows:
    def test_ball_radius_two(self):
        assert len(ball_offsets(2)) == 13

    def test_ball_radius_three(self):
        assert len(ball_offsets(3)) == 29

    def test_ball_radius_zero(self):
        assert ball_offsets(0) == [(0, 0)]

    def test_circular_distance(self):
        assert circular_distance(0, 15, 16) == 1
        assert circular_distance(3, 11, 16) == 8
        assert circular_distance(5, 5, 16) == 0


class TestPresets:
    def test_model_sizes_reference_grid(self):
        # reference relative sizes at d = 256^2, J = 5, Q = 16
        d = 256 ** 2
        targets = {"A": 3.6e-2, "B": 1.1e-1, "C": 1.7e-1, "D": 1.2e-2}
        for name, target in targets.items():
            edges = build_foveal_edges(model_preset(name))
            assert len(edges) / d == pytest.approx(target, rel=0.05), name

    def test_model_a_size_tight(self):
        edges = build_foveal_edges(model_preset("A"))
        assert len(edges) / 256 ** 2 == pytest.approx(3.6e-2, rel=0.02)

    def test_model_d_size_tight(self):
        edges = build_foveal_edges(model_preset("D"))
        assert len(edges) / 256 ** 2 == pytest.approx(1.2e-2, rel=0.05)

    def test_exponent_ranges(self):
        assert (model_preset("A").k_min, model_preset("A").k_max) == (1, 1)
        assert (model_preset("B").k_min, model_preset("B").k_max) == (0, 1)
        assert (model_preset("C").k_min, model_preset("C").k_max) == (0, 2)
        assert (model_preset("D").k_min, model_preset("D").k_max) == (0, 2)

    def test_model_d_group(self):
        assert model_preset("D").group.rotations
        assert not model_preset("B").group.rotations

    def test_model_d_single_position(self):
        edges = build_foveal_edges(model_preset("D"))
        assert all(e.du == (0, 0) for e in edges.edges)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            model_preset("E")


class TestEdgeSets:
    def test_diagonal_only_custom(self):
        spec = model_preset("A", J=2, Q=4, delta_n=0)
        edges = build_foveal_edges(spec)
        # one diagonal edge per channel (2*4 bands + lowpass)
        assert len(edges) == 9
        assert all(e.ch == e.ch2 and e.du == (0, 0) for e in edges.edges)

    def test_contains_all_diagonals(self):
        # every vertex class has its (v, v) edge, modulo the symmetry group
        # (rotation-invariant models store the angular base class only)
        for name in ("A", "B", "C", "D"):
            spec = model_preset(name, J=3, Q=8)
            edges = build_foveal_edges(spec)
            keys = {e.key() for e in edges.edges}
            for (ch, k) in edges.vertex_classes():
                if spec.group.rotations and ch != "low":
                    ch = (ch[0], 0)
                assert (ch, k, ch, k, (0, 0)) in keys, (name, ch, k)

    def test_offsets_respect_stride(self):
        spec = model_preset("B", J=3, Q=8)
        for e in build_foveal_edges(spec).edges:
            if e.ch == e.ch2 and e.ch != "low":
                stride = 2 ** (e.ch[0] - 1)
                assert e.du[0] % stride == 0 and e.du[1] % stride == 0

    def test_sign_change_excludes_odd_pairs(self):
        group = SymmetryGroup(sign_change=True)
        spec = model_preset("B", J=2, Q=4, group=group)
        edges = build_foveal_edges(spec)
        assert all((e.k + e.k2) % 2 == 0 for e in edges.edges)
        plain = build_foveal_edges(model_preset("B", J=2, Q=4))
        assert len(edges) < len(plain)

    def test_invalid_delta_ell(self):
        with pytest.raises(ConfigError):
            model_preset("B", Q=8, delta_ell=5).validate()

    def test_k_range_must_bracket_one(self):
        with pytest.raises(ConfigError):
            model_preset("B", k_min=0, k_max=0)

    def test_custom_k_range_must_bracket_one(self):
        for k_min, k_max in ((0, 0), (2, 3)):
            with pytest.raises(ConfigError, match="k_min <= 1 <= k_max"):
                ModelSpec(k_min=k_min, k_max=k_max).validate()

    def test_hand_built_preset_spec_holds_the_preset_values(self):
        # model B's builder reads neither k_max nor delta_j: a spec that sets
        # them otherwise would build the preset's edges under another name
        for field, value in (("k_max", 2), ("delta_j", 1), ("k_min", -1)):
            kw = {**PRESETS["B"].values(4), field: value}
            with pytest.raises(ConfigError, match=f"model B fixes {field}="):
                ModelSpec(name="B", J=2, Q=4, **kw).validate()
        for name, preset in PRESETS.items():
            values = {k: v for k, v in preset.values(8).items() if k != "group"}
            assert ModelSpec(name=name, J=3, Q=8, **values).validate().name == name
        # the fields a preset reads and the group stay free
        ModelSpec(name="b", J=2, Q=4, **{**PRESETS["B"].values(4), "delta_n": 0, "delta_ell": 2},
                  group=SymmetryGroup(sign_change=True)).validate()

    def test_rotations_require_single_position(self):
        spec = model_preset("C", J=2, Q=4, group=SymmetryGroup(rotations=True))
        with pytest.raises(ConfigError):
            build_foveal_edges(spec)

    def test_custom_policy_counts(self):
        spec = model_preset("B", J=2, Q=4)
        spec.name = "custom"
        edges = build_foveal_edges(spec)
        assert len(edges) > 0
        assert all(
            circular_distance(0 if e.ch == "low" else e.ch[1],
                              0 if e.ch2 == "low" else e.ch2[1], 4) <= spec.delta_ell
            or "low" in (e.ch, e.ch2)
            for e in edges.edges
        )
