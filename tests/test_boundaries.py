"""Fuzz tests for the input boundaries: config documents, graph documents,
model files, CSV files and propagation parameters.

Each loader either returns a value or raises its named error (``ConfigError``,
``GraphError`` or ``ValueError``); any other exception escapes the CLI's
error handler as a traceback.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rootkgd.config import ConfigError, DiagnosisConfig, config_from_dict
from rootkgd.dataio import read_csv, write_csv
from rootkgd.features import DataMatrix, fit_pca, load_model, save_model
from rootkgd.kgraph import EntityKind, GraphError, graph_from_dict
from rootkgd.rfpa import RfpaParams

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),  # finite in JSON, too large for a float
    st.floats(),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def documents(plausible: dict[str, st.SearchStrategy]) -> st.SearchStrategy:
    """Objects with each key absent, plausible or an arbitrary JSON value."""
    return st.fixed_dictionaries(
        {}, optional={key: st.one_of(value, JSON_VALUES) for key, value in plausible.items()}
    )


NAMES = st.sampled_from(["a", "b", "c", "State"])
ENTITIES = documents({
    "id": NAMES,
    "kind": st.sampled_from([k.value for k in EntityKind]),
    "label": st.text(max_size=3),
    "column": st.sampled_from(["x1", "x2"]),
})
RELATIONS = documents({
    "name": NAMES,
    "d": st.one_of(st.floats(), st.integers(-3, 3)),
    "o": st.integers(-2, 2),
})
TRIPLES = st.lists(NAMES, min_size=3, max_size=3)
GRAPHS = st.one_of(JSON_VALUES, documents({
    "entities": st.lists(st.one_of(ENTITIES, JSON_VALUES), max_size=4),
    "relations": st.lists(st.one_of(RELATIONS, JSON_VALUES), max_size=3),
    "triples": st.lists(st.one_of(TRIPLES, JSON_VALUES), max_size=4),
}))

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(payload=st.dictionaries(
    st.sampled_from([f.name for f in fields(DiagnosisConfig)] + ["unknown"]), JSON_VALUES
))
def test_config_from_dict_accepts_or_names_the_error(payload):
    try:
        config_from_dict(payload)
    except ConfigError:
        pass


@FUZZ
@given(payload=GRAPHS)
def test_graph_from_dict_accepts_or_names_the_error(payload):
    try:
        graph_from_dict(payload)
    except GraphError:
        pass


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("model") / "model.npz"
    save_model(fit_pca(DataMatrix(rng.normal(size=(40, 4)), ("a", "b", "c", "d")), 0.5), path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_load_model_accepts_or_names_the_error(model_bytes, tmp_path, data):
    """Byte edits and truncations of a real model file: each loads or raises a
    ``ValueError`` that names the file."""
    raw = bytearray(model_bytes)
    edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
    for position, value in data.draw(st.lists(edits, max_size=4)):
        raw[position] = value
    raw = raw[: data.draw(st.none() | st.integers(0, len(raw)))]  # None: whole
    path = tmp_path / "model.npz"
    path.write_bytes(raw)
    try:
        load_model(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")


@pytest.fixture(scope="module")
def csv_bytes(tmp_path_factory):
    rng = np.random.default_rng(1)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_csv(DataMatrix(rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-5, 6, size=(6, 3)),
                         ("a", "b", "c")), path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_read_csv_returns_or_names_the_error(csv_bytes, tmp_path, data):
    """Arbitrary bytes, and byte edits and truncations of a file ``write_csv``
    wrote, read in full, as the first rows and as a window: each read returns
    a ``DataMatrix`` or raises a ``ValueError`` whose message starts with the
    file's path."""
    if data.draw(st.booleans()):
        raw = bytearray(data.draw(st.binary(max_size=200)))
    else:
        raw = bytearray(csv_bytes)
        edits = st.tuples(st.integers(0, len(raw) - 1),
                          st.sampled_from(b'\x00\t\n\r "+,-.0159_eEinx\x80\xa0\xc2\xef\xff'))
        for position, value in data.draw(st.lists(edits, max_size=4)):
            raw[position] = value
        raw = raw[: data.draw(st.none() | st.integers(0, len(raw)))]  # None: whole
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    rows = data.draw(st.none() | st.integers(1, 8))
    skip = None if rows is None else data.draw(st.none() | st.integers(0, 8))
    try:
        result = read_csv(path, rows=rows, skip=skip)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")
    else:
        assert isinstance(result, DataMatrix)


@FUZZ
@given(kwargs=documents({
    "sigma_r": st.floats(),
    "p_max": st.integers(-1, 5),
    "delta_s_min_ratio": st.floats(),
}))
def test_rfpa_params_accepts_or_names_the_error(kwargs):
    try:
        RfpaParams(**kwargs)
    except ValueError:
        pass
