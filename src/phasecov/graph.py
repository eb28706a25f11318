"""Model specifications, symmetry groups, and foveal covariance edge sets.

An edge pairs two vertex classes (channel, k) at a relative pixel offset; the
first vertex is pinned to position 0 (translation quotient).  Named presets
A-D reproduce the reference model families; their edge policies (spatial
windows, exponent pairs, angular/scale neighbours) are calibrated so that
|E_G|/d matches the reference relative model sizes at d = 256^2, J = 5,
Q = 16:

    A: 3.6e-2   B: 1.1e-1   C: 1.7e-1   D: 1.2e-2

Spatial windows are inclusive Euclidean balls on the coarser of the two
channel lattices.  Model A uses radius 3: the reference size 3.6e-2 equals
81 channels x 29 offsets, which no radius-2 window reproduces.  Model D is
rotation invariant; its edges live at a single spatial position and cover all
relative angles, which is the angular-Fourier (m-diagonal) parameterization.
"""

from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .grid import MAX_SEED
from .wavelets import LOWPASS


@dataclass(frozen=True)
class SymmetryGroup:
    """Symmetries averaged by the estimators; translations are always on."""

    rotations: bool = False
    line_reflection: bool = False
    sign_change: bool = False
    central_reflection: bool = False


@dataclass(frozen=True)
class Edge:
    """Ordered vertex pair ((ch, k) at 0, (ch2, k2) at pixel offset du)."""

    ch: object  # (j, ell) or LOWPASS
    k: int
    ch2: object
    k2: int
    du: tuple  # pixel offset of the second vertex

    def key(self):
        return (self.ch, self.k, self.ch2, self.k2, self.du)


def _require_int(what, value, low=None, high=None):
    """ConfigError unless ``value`` is an int (not a bool) in [low, high)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low) or (high is not None and value >= high)):
        bound = ("" if low is None else f" >= {low}") + ("" if high is None else f" and < {high}")
        raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")


@dataclass
class OptimizerSettings:
    max_iter: int = 5000
    memory: int = 10
    c1: float = 1e-4
    c2: float = 0.9
    gtol: float = 1e-8
    eps_ratio: float = 1e-3  # stop when loss < eps_ratio * initial loss
    restarts: int = 10
    seed: int = 0

    def validate(self):
        """Type and range checks: integer counts >= 1, a seed in [0, 2^64),
        0 < c1 < c2 < 1 and finite gtol, eps_ratio >= 0."""
        for name, low, high in (("max_iter", 1, None), ("memory", 1, None),
                                ("restarts", 1, None), ("seed", 0, MAX_SEED)):
            _require_int(f"optimizer {name}", getattr(self, name), low, high)
        for name in ("c1", "c2", "gtol", "eps_ratio"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not -np.inf < value < np.inf):
                raise ConfigError(f"optimizer {name} must be a finite number, got {value!r}")
        if not 0 < self.c1 < self.c2 < 1:
            raise ConfigError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if self.gtol < 0 or self.eps_ratio < 0:
            raise ConfigError("optimizer gtol and eps_ratio must be >= 0")
        return self


@dataclass
class ModelSpec:
    """Foveal covariance model: wavelet geometry, exponents, neighbourhoods."""

    name: str = "custom"
    J: int = 5
    Q: int = 16
    k_min: int = 1
    k_max: int = 1
    delta_n: int = 2
    delta_j: int = 0
    delta_ell: int = 0
    group: SymmetryGroup = field(default_factory=SymmetryGroup)
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def validate(self):
        """Type and range checks: a string name, J and Q integers >= 1,
        integer exponents with k_min <= 1 <= k_max, integer neighbourhoods
        >= 0 with delta_ell <= Q/2, boolean group flags, and a named preset's
        own values in the fields its edge builder does not read."""
        if not isinstance(self.name, str):
            raise ConfigError(f"model name must be a string, got {self.name!r}")
        for name, low in (("J", 1), ("Q", 1), ("k_min", None), ("k_max", None),
                          ("delta_n", 0), ("delta_j", 0), ("delta_ell", 0)):
            _require_int(f"model {name}", getattr(self, name), low)
        for name, flag in asdict(self.group).items():
            if not isinstance(flag, bool):
                raise ConfigError(f"group flag {name} must be true or false, got {flag!r}")
        if self.k_min > 1 or self.k_max < 1:
            raise ConfigError(f"need k_min <= 1 <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.delta_ell > self.Q // 2:
            raise ConfigError(f"delta_ell={self.delta_ell} exceeds Q/2={self.Q // 2}")
        preset = preset_of(self.name)
        for name, value in (preset.values(self.Q) if preset.values else {}).items():
            if name not in ("group", *preset.reads) and (got := getattr(self, name)) != value:
                raise ConfigError(f"model {self.name.upper()} fixes {name}={value}, got {got}")
        return self


@dataclass
class EdgeSet:
    """Foveal edge list for a model spec (translation-quotient form)."""

    edges: list
    spec: ModelSpec

    def __len__(self):
        return len(self.edges)

    def vertex_classes(self):
        seen = {}
        for e in self.edges:
            seen[(e.ch, e.k)] = None
            seen[(e.ch2, e.k2)] = None
        return list(seen)


def ball_offsets(radius):
    """Integer offsets with |n| <= radius (Euclidean, inclusive)."""
    r = int(radius)
    return [
        (a, b)
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        if a * a + b * b <= r * r
    ]


def half_offsets(radius):
    """One representative of each +/-n pair in the ball, plus the origin."""
    out = []
    for n in ball_offsets(radius):
        if n == (0, 0) or n > (0, 0):
            out.append(n)
    return out


def circular_distance(l1, l2, Q):
    d = abs(l1 - l2) % Q
    return min(d, Q - d)


def _pixels(n, stride):
    return (n[0] * stride, n[1] * stride)


def _bands(spec):
    return [(j, ell) for j in range(1, spec.J + 1) for ell in range(spec.Q)]


def _edges_model_a(spec):
    edges = []
    window = ball_offsets(spec.delta_n)
    for ch in _bands(spec) + [LOWPASS]:
        stride = 2 ** (spec.J - 1) if ch == LOWPASS else 2 ** (ch[0] - 1)
        for n in window:
            edges.append(Edge(ch, 1, ch, 1, _pixels(n, stride)))
    return edges


def _edges_model_b(spec, kpairs_same=((0, 0), (1, 1), (0, 1))):
    edges = []
    window = ball_offsets(spec.delta_n)
    for (j, ell) in _bands(spec):
        stride = 2 ** (j - 1)
        for (k, k2) in kpairs_same:
            for n in window:
                edges.append(Edge((j, ell), k, (j, ell), k2, _pixels(n, stride)))
        for dl in range(1, spec.delta_ell + 1):  # modulus across angles
            ell2 = (ell + dl) % spec.Q
            for n in window:
                edges.append(Edge((j, ell), 0, (j, ell2), 0, _pixels(n, stride)))
    for k in (0, 1):
        stride = 2 ** (spec.J - 1)
        for n in window:
            edges.append(Edge(LOWPASS, k, LOWPASS, k, _pixels(n, stride)))
    return edges


CROSS_SCALE_KPAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))


def _edges_model_c(spec):
    edges = _edges_model_b(
        spec, kpairs_same=((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    )
    for (j, ell) in _bands(spec):
        if j + 1 > spec.J:
            continue
        for (k, k2) in CROSS_SCALE_KPAIRS:
            edges.append(Edge((j, ell), k, (j + 1, ell), k2, (0, 0)))
    return edges


def _edges_model_d(spec):
    # m-diagonal parameterization: all relative angles at one spatial
    # position, Q entries per (scale pair, exponent pair) quadruple
    edges = []
    same = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    for j in range(1, spec.J + 1):
        for (k, k2) in same:
            for dl in range(spec.Q):
                edges.append(Edge((j, 0), k, (j, dl), k2, (0, 0)))
        if j + 1 <= spec.J:
            for (k, k2) in CROSS_SCALE_KPAIRS:
                for dl in range(spec.Q):
                    edges.append(Edge((j, 0), k, (j + 1, dl), k2, (0, 0)))
    for k in (0, 1):
        edges.append(Edge(LOWPASS, k, LOWPASS, k, (0, 0)))
    return edges


def _edges_custom(spec):
    """Generic product policy: all channel pairs within (delta_j, delta_ell),
    all canonical exponent pairs, ball(delta_n) offsets on the coarser lattice."""
    edges = []
    kk = [(k, k2) for k in range(spec.k_min, spec.k_max + 1)
          for k2 in range(spec.k_min, spec.k_max + 1) if k <= k2]
    bands = _bands(spec)
    for (j, ell) in bands:
        for j2 in range(j, min(spec.J, j + spec.delta_j) + 1):
            for ell2 in range(spec.Q):
                if circular_distance(ell, ell2, spec.Q) > spec.delta_ell:
                    continue
                same_channel = (j2, ell2) == (j, ell)
                if j2 == j and ell2 < ell:
                    # unordered same-scale channel pair already emitted
                    continue
                stride = 2 ** (max(j, j2) - 1)
                window = half_offsets(spec.delta_n) if same_channel else ball_offsets(spec.delta_n)
                for (k, k2) in kk:
                    for n in window:
                        edges.append(Edge((j, ell), k, (j2, ell2), k2, _pixels(n, stride)))
    stride = 2 ** (spec.J - 1)
    for k in (0, 1):
        if spec.k_min <= k <= spec.k_max:
            for n in half_offsets(spec.delta_n):
                edges.append(Edge(LOWPASS, k, LOWPASS, k, _pixels(n, stride)))
    return edges


class Preset(NamedTuple):
    """What a model configuration may say: the model fields its edge builder
    reads (the group is read by every model), the optimizer fields its fit
    reads, and, for a named preset, its fixed field values given Q."""

    builder: object
    reads: tuple
    optimizer: tuple
    values: object = None


_OPTIMIZER_FIELDS = tuple(f.name for f in fields(OptimizerSettings))

CUSTOM = Preset(_edges_custom, tuple(f.name for f in fields(ModelSpec)
                                     if f.name not in ("name", "group", "optimizer")),
                _OPTIMIZER_FIELDS)

# model A's dual fit has its own tolerances: synth reads only its sample seed
# and count
PRESETS = {
    "A": Preset(_edges_model_a, ("J", "Q", "delta_n"), ("restarts", "seed"),
                lambda Q: dict(k_min=1, k_max=1, delta_n=3, delta_j=0, delta_ell=0)),
    "B": Preset(_edges_model_b, ("J", "Q", "delta_n", "delta_ell"), _OPTIMIZER_FIELDS,
                lambda Q: dict(k_min=0, k_max=1, delta_n=2, delta_j=0, delta_ell=Q // 4)),
    "C": Preset(_edges_model_c, ("J", "Q", "delta_n", "delta_ell"), _OPTIMIZER_FIELDS,
                lambda Q: dict(k_min=0, k_max=2, delta_n=2, delta_j=1, delta_ell=Q // 4)),
    "D": Preset(_edges_model_d, ("J", "Q"), _OPTIMIZER_FIELDS,
                lambda Q: dict(k_min=0, k_max=2, delta_n=0, delta_j=1, delta_ell=Q // 4,
                               group=SymmetryGroup(rotations=True))),
}


def preset_of(name):
    """The :class:`Preset` of a model name: a named preset or :data:`CUSTOM`."""
    return PRESETS.get(str(name).upper(), CUSTOM)


def model_preset(name, J=5, Q=16, **overrides):
    """Named presets of the reference model families.  ``overrides`` may set
    the group and the fields the preset's edge builder reads; any other
    field is a ConfigError, also when it holds the preset's own value."""
    key = name.upper()
    if key not in PRESETS:
        raise ConfigError(f"unknown model preset {name!r}")
    preset = PRESETS[key]
    unread = sorted(set(overrides) - {"group", *preset.reads})
    if unread:
        raise ConfigError(f"model {key} does not read {', '.join(unread)}; "
                          f"it reads {', '.join(preset.reads)} and group")
    _require_int("model Q", Q, 1)  # the presets derive delta_ell from Q
    return ModelSpec(name=key, J=J, Q=Q, **{**preset.values(Q), **overrides}).validate()


def require_single_position(edges):
    """ConfigError naming the first edge off lag (0, 0), low-pass pairs included:
    rotations relabel angles but leave lags unturned, exact at lag zero only."""
    for e in edges:
        if e.du != (0, 0):
            raise ConfigError(f"rotation averaging needs every edge at lag (0, 0), got {e}")


def build_foveal_edges(spec):
    """Edge set of a model spec (see module docstring for preset policies)."""
    spec.validate()
    edges = preset_of(spec.name).builder(spec)
    if spec.group.sign_change:
        edges = [e for e in edges if (e.k + e.k2) % 2 == 0]
    if spec.group.rotations:
        require_single_position(edges)
    return EdgeSet(edges=edges, spec=spec)
