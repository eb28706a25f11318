"""Bit-exact file formats and fail-closed configuration loading.

Field files ("PHKF"): magic, u32 version=1, u32 ndim, u64 dims (little
endian), u8 dtype tag (0 = float64, 1 = complex128 interleaved), row-major
little-endian payload.

Table files ("PHKT"): magic, u32 version=1, u64 header length, UTF-8 JSON
header (edge keys, vertex classes, metadata; canonical key order), then
float64 payload arrays (means, covariances, diagonal) in the header's order.

Run configuration is a JSON document mirroring the model spec.  Its schema
is the spec dataclasses' fields, narrowed per model by ``graph.PRESETS``:
a key that nothing reads is rejected, anywhere.
"""

import json
import math
import os
import re
import struct
import sys
from dataclasses import asdict, fields

import numpy as np

from .covariance import CovarianceTable
from .errors import ConfigError, FormatError
from .graph import (CUSTOM, ModelSpec, OptimizerSettings, SymmetryGroup, _require_int,
                    model_preset, preset_of)
from .wavelets import LOWPASS

FIELD_MAGIC = b"PHKF"
TABLE_MAGIC = b"PHKT"
VERSION = 1


# ----- field files ----------------------------------------------------------

def write_field(path, array):
    array = np.asarray(array)
    if array.ndim < 1:
        raise ConfigError("cannot write a scalar as a field file")
    if np.iscomplexobj(array):
        tag = 1
        payload = np.ascontiguousarray(array, dtype="<c16").tobytes()
    else:
        tag = 0
        payload = np.ascontiguousarray(array, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", array.ndim))
        for dim in array.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(struct.pack("<B", tag))
        fh.write(payload)


def _read_exact(fh, size, what):
    """Exactly ``size`` bytes from ``fh``; FormatError when the file is shorter."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > remaining:
        raise FormatError(f"truncated file: {what} needs {size} bytes, {remaining} left")
    return fh.read(size)


def _unpack(fh, fmt, what):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), what))[0]


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FIELD_MAGIC:
            raise FormatError(f"bad field magic {magic!r}")
        version = _unpack(fh, "<I", "version")
        if version != VERSION:
            raise FormatError(f"unsupported field version {version}")
        ndim = _unpack(fh, "<I", "ndim")
        dims = [_unpack(fh, "<Q", "dimension") for _ in range(ndim)]
        tag = _unpack(fh, "<B", "dtype tag")
        if tag not in (0, 1):
            raise FormatError(f"unknown dtype tag {tag}")
        dtype = "<f8" if tag == 0 else "<c16"
        payload = fh.read()
    expected = math.prod(dims) * (8 if tag == 0 else 16)
    if len(payload) != expected:
        raise FormatError(f"payload length {len(payload)} != expected {expected}")
    field = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if not np.isfinite(field).all():
        raise FormatError(f"{path}: field holds NaN or infinite values")
    return field


# ----- covariance table files -----------------------------------------------

def _channel_to_json(ch):
    return "low" if ch == LOWPASS else [ch[0], ch[1]]


def _channel_from_json(obj):
    if obj == "low":
        return LOWPASS
    return (int(obj[0]), int(obj[1]))


def _key_to_json(key):
    ch, k, ch2, k2, du = key
    return [_channel_to_json(ch), k, _channel_to_json(ch2), k2, [du[0], du[1]]]


def _key_from_json(obj):
    return (
        _channel_from_json(obj[0]),
        int(obj[1]),
        _channel_from_json(obj[2]),
        int(obj[3]),
        (int(obj[4][0]), int(obj[4][1])),
    )


def write_table(path, table):
    edge_keys = sorted(table.cov, key=str)
    classes = sorted(table.means, key=str)
    diag_classes = sorted(table.diag, key=str)
    header = {
        "edges": [_key_to_json(k) for k in edge_keys],
        "vertex_classes": [[_channel_to_json(c), k] for (c, k) in classes],
        "diag_classes": [[_channel_to_json(c), k] for (c, k) in diag_classes],
        "group": asdict(table.group),
        "normalized": table.normalized,
        "has_norm_diag": table.norm_diag is not None,
        "source": table.source,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    means = np.array([table.means[c] for c in classes], dtype="<c16")
    cov = np.array([table.cov[k] for k in edge_keys], dtype="<c16")
    diag = np.array([table.diag[c] for c in diag_classes], dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(means.tobytes())
        fh.write(cov.tobytes())
        fh.write(diag.tobytes())
        if table.norm_diag is not None:
            norm = np.array([table.norm_diag[c] for c in diag_classes], dtype="<f8")
            fh.write(norm.tobytes())


def read_table(path):
    with open(path, "rb") as fh:
        if fh.read(4) != TABLE_MAGIC:
            raise FormatError("bad table magic")
        version = _unpack(fh, "<I", "version")
        if version != VERSION:
            raise FormatError(f"unsupported table version {version}")
        hlen = _unpack(fh, "<Q", "header length")
        blob = _read_exact(fh, hlen, "header")
        try:
            header = json.loads(blob.decode())
            edge_keys = [_key_from_json(e) for e in header["edges"]]
            classes = [(_channel_from_json(c), int(k)) for c, k in header["vertex_classes"]]
            diag_classes = [(_channel_from_json(c), int(k)) for c, k in header["diag_classes"]]
            group = SymmetryGroup(**header["group"])
            normalized, has_norm_diag = bool(header["normalized"]), bool(header["has_norm_diag"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise FormatError(f"malformed table header: {exc}") from exc
        means = np.frombuffer(_read_exact(fh, 16 * len(classes), "means"), dtype="<c16")
        cov = np.frombuffer(_read_exact(fh, 16 * len(edge_keys), "covariances"), dtype="<c16")
        diag = np.frombuffer(_read_exact(fh, 8 * len(diag_classes), "diagonal"), dtype="<f8")
        norm_diag = None
        if has_norm_diag:
            norm = _read_exact(fh, 8 * len(diag_classes), "normalization diagonal")
            norm_diag = dict(zip(diag_classes, np.frombuffer(norm, dtype="<f8").tolist()))
        if fh.read(1):
            raise FormatError("trailing bytes after the table payload")
    return CovarianceTable(
        means=dict(zip(classes, means.tolist())),
        cov=dict(zip(edge_keys, cov.tolist())),
        diag=dict(zip(diag_classes, diag.tolist())),
        group=group,
        normalized=normalized,
        norm_diag=norm_diag,
        source=header.get("source", ""),
    )


# ----- run configuration ------------------------------------------------------

_GROUP_KEYS = {f.name for f in fields(SymmetryGroup)}
_MODEL_KEYS = {f.name for f in fields(ModelSpec)} - {"optimizer"}
_OPT_KEYS = {f.name for f in fields(OptimizerSettings)}
_EVAL_KEYS = {"k_lo", "k_hi", "delta_n", "a_max", "j_list", "q_list"}
_TOP_KEYS = {"model", "optimizer", "evaluation", "seed", "restarts"}


def _object(value, allowed, where):
    """``value`` when it is a JSON object with only ``allowed`` keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    return value


def _validate_evaluation(ev):
    """ConfigError unless the evaluation section's values have their types
    and ranges: integer exponents, a lattice radius and profile length >= 0,
    and non-empty lists of scales and moment orders >= 1."""
    for key, low in (("k_lo", None), ("k_hi", None), ("delta_n", 0), ("a_max", 0)):
        if key in ev:
            _require_int(f"evaluation {key}", ev[key], low)
    for key in ("j_list", "q_list"):
        if key in ev:
            value = ev[key]
            if not isinstance(value, list) or not value:
                raise ConfigError(f"evaluation {key} must be a non-empty list of integers, "
                                  f"got {value!r}")
            for v in value:
                _require_int(f"evaluation {key} entry", v, 1)


def parse_config(doc):
    """Validated run configuration from a parsed JSON document (fail-closed)."""
    _object(doc, _TOP_KEYS, "configuration root")
    model_doc = _object(doc.get("model", {}), _MODEL_KEYS, "'model'")
    group_doc = _object(model_doc.get("group", {}), _GROUP_KEYS, "'model.group'")
    name = model_doc.get("name", "custom")
    preset = preset_of(name)
    opt_doc = _object(doc.get("optimizer", {}), set(preset.optimizer),
                      f"'optimizer' of model {name}")
    eval_doc = _object(doc.get("evaluation", {}), _EVAL_KEYS, "'evaluation'")
    _validate_evaluation(eval_doc)

    group = SymmetryGroup(**group_doc)
    # top-level restarts / seed override the optimizer section
    optimizer = OptimizerSettings(
        **{**opt_doc, **{k: doc[k] for k in ("restarts", "seed") if k in doc}}
    ).validate()
    overrides = {k: v for k, v in model_doc.items() if k not in ("group", "name")}
    if preset is CUSTOM:
        spec = ModelSpec(name=name, group=group, optimizer=optimizer, **overrides).validate()
    else:
        spec = model_preset(name, **overrides, **({"group": group} if group_doc else {}))
        spec.optimizer = optimizer
    return {"spec": spec, "evaluation": dict(eval_doc)}


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)


def spec_to_json(spec):
    """JSON document of a model spec with exactly the keys :func:`parse_config`
    accepts for its model, so that it parses back to the same spec."""
    preset = preset_of(spec.name)
    optimizer = asdict(spec.optimizer)
    return {
        "model": {"name": spec.name, **{k: getattr(spec, k) for k in preset.reads},
                  "group": asdict(spec.group)},
        "optimizer": {k: optimizer[k] for k in preset.optimizer},
    }


# ----- PGM export -------------------------------------------------------------

def export_pgm(field, path):
    """16-bit binary PGM, min-max scaled, plus a JSON sidecar with (min, max).

    The sidecar makes the scaling invertible up to 16-bit quantization.
    Constant fields map to zero with min = max recorded.
    """
    x = np.asarray(field, dtype=float)
    lo = float(x.min())
    hi = float(x.max())
    if hi > lo:
        scaled = np.rint((x - lo) / (hi - lo) * 65535.0).astype(">u2")
    else:
        scaled = np.zeros(x.shape, dtype=">u2")
    header = f"P5\n{x.shape[1]} {x.shape[0]}\n65535\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.tobytes())
    with open(str(path) + ".json", "w") as fh:
        json.dump({"min": lo, "max": hi}, fh, sort_keys=True)
        fh.write("\n")


def import_pgm(path):
    """Invert :func:`export_pgm` using the sidecar (16-bit quantized).  The four
    header tokens end with one whitespace byte; exactly w*h*2 payload bytes follow."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise FormatError("not a binary PGM file")
    w, h, maxval = (int(t) for t in header.groups())
    if maxval != 65535:
        raise FormatError("expected a 16-bit PGM")
    payload = data[header.end():]
    if len(payload) != w * h * 2:
        raise FormatError(f"PGM payload length {len(payload)} != expected {w * h * 2}")
    raw = np.frombuffer(payload, dtype=">u2").reshape(h, w)
    try:
        with open(str(path) + ".json") as fh:
            side = json.load(fh)
        lo, hi = side["min"], side["max"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"missing or malformed PGM sidecar: {exc!r}") from exc
    # abs(v) <= float max is False for NaN, infinities and ints beyond float range
    if not (all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in (lo, hi))
            and lo <= hi and hi - lo <= sys.float_info.max):
        raise FormatError(f"PGM sidecar needs finite min <= max, got {lo!r}, {hi!r}")
    lo, hi = float(lo), float(hi)
    if hi > lo:
        return lo + raw.astype(float) / 65535.0 * (hi - lo)
    return np.full((h, w), lo)


# ----- CSV --------------------------------------------------------------------

def format_float(x):
    """Round-trip safe float formatting (17 significant digits)."""
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [format_float(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")
