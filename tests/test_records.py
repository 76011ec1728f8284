import subprocess
import sys
import types

import numpy as np
import pytest
from test_bcskit import SolutionGroupPresentation
from test_cli import subprocess_env
from test_gamekit import LinearSystem
from test_groupkit import Irrep

import znlcs
from znlcs.bcskit import (BinaryLCS, LCSStrategy, OperatorSolution,
                          SolutionReport)
from znlcs.biaskit import BiasReport
from znlcs.gamekit import GameSpec, ModNGameParams
from znlcs.groupkit import MonomialUnitary
from znlcs.ncpoly import NCPolynomial
from znlcs.npakit import MomentProblem, SDPAProblem, build_moment_problem
from znlcs.records import Record
from znlcs.soskit import SOSCertificate
from znlcs.strategykit import SchmidtData, Strategy, canonical_strategy

EYE1 = np.eye(1, dtype=np.complex128)


def _moment_problem_fields():
    mp = build_moment_problem(ModNGameParams(2, 0, 1), 1)
    return {name: getattr(mp, name) for name in (
        "n", "level", "words", "class_keys", "objective", "cell_class",
        "cell_conj")}


def _strategy_fields():
    s = canonical_strategy(2)
    return {name: getattr(s, name) for name in (
        "order", "dimA", "dimB", "alice_obs", "bob_obs", "state")}


# (record class, every field by keyword in declaration order, one field to
# change for an unequal record). Values are already in the normalised form
# each record stores, so rebuilding from them keeps every array object.
SAMPLES = [
    (BinaryLCS, {"variable_count": 2, "constraints": (((0, 1), -1),)},
     ("variable_count", 3)),
    (OperatorSolution, {"dim": 1, "observables": (EYE1, -EYE1)},
     ("dim", 2)),
    (SolutionReport, {"observable_defects": ((0, 0.5),),
                      "commutation_defects": (),
                      "product_defects": ()},
     ("product_defects", ((1, 0.25),))),
    (LCSStrategy, {"dim": 1, "alice_projectors": ((EYE1,),),
                   "bob_observables": (EYE1,), "state": EYE1[0]},
     ("dim", 2)),
    (SolutionGroupPresentation, {"generators": ("g0", "J"),
                                 "relators": (("J", "J"),)},
     ("generators", ("g0",))),
    (BiasReport, {"top_eigenvalue": 6.0, "multiplicity": 1,
                  "predicted_value": 0.75},
     ("multiplicity", 2)),
    (GameSpec, {"nA": 1, "nB": 1, "mA": 1, "mB": 1,
                "distribution": np.ones((1, 1)),
                "predicate": np.ones((1, 1, 1, 1), dtype=bool)},
     ("predicate", np.zeros((1, 1, 1, 1), dtype=bool))),
    (ModNGameParams, {"n": 3, "m1": 0, "m2": 1}, ("m2", 2)),
    (LinearSystem, {"modulus": 3, "equations": (((0, 1), (1, 2), 0),)},
     ("modulus", 5)),
    (MonomialUnitary, {"n": 2, "shift": 1, "phases": (0, 3)},
     ("shift", 0)),
    (Irrep, {"name": "chi_00", "degree": 1, "images": {"P0": EYE1}},
     ("name", "chi_01")),
    (MomentProblem, _moment_problem_fields(), ("level", 2)),
    (SDPAProblem, {"nvars": 1, "block_sizes": [2, -2], "objective": [-1.0],
                   "entries": {(1, 1, 1, 1): 1.0}},
     ("nvars", 2)),
    (SOSCertificate, {"order": 2, "lam": 2.0,
                      "squares": ((1.0, NCPolynomial(2)),)},
     ("lam", 3.0)),
    (Strategy, _strategy_fields(), ("order", 4)),
    (SchmidtData, {"coefficients": np.array([1.0]), "rank": 1,
                   "entropy": 0.0},
     ("rank", 2)),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# Records whose fields are all hashable values.
HASHABLE = {BinaryLCS, SolutionReport, SolutionGroupPresentation,
            ModNGameParams, LinearSystem, MonomialUnitary}


def test_every_record_is_sampled():
    records = {cls for module in vars(znlcs).values()
               if isinstance(module, types.ModuleType)
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Record)
               and cls is not Record}
    # SolutionGroupPresentation and LinearSystem are test references'
    # records.
    assert records == {cls for cls, _, _ in SAMPLES
                       if cls.__module__.startswith("znlcs.")}


@pytest.mark.parametrize("cls,fields,change", SAMPLES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields, change):
    assert cls(**fields) == cls(*fields.values())


@pytest.mark.parametrize("cls,fields,change", SAMPLES, ids=IDS)
def test_records_are_immutable(cls, fields, change):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**fields) == record


@pytest.mark.parametrize("cls,fields,change", SAMPLES, ids=IDS)
def test_equality_is_field_wise(cls, fields, change):
    record = cls(**fields)
    name, value = change
    other = cls(**{**fields, name: value})
    assert record == cls(**fields)
    assert record != other
    assert record != object()
    if cls in HASHABLE:
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(**fields), other}) == 2


@pytest.mark.parametrize("cls,fields,change", SAMPLES, ids=IDS)
def test_repr_names_every_field(cls, fields, change):
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__name__}(")
    for name in fields:
        assert f"{name}=" in text


@pytest.mark.parametrize("cls,fields,change", SAMPLES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, fields, change):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unexpected"):
        cls(*values, unknown=1)
    with pytest.raises(TypeError, match="multiple"):
        cls(*values, **{first: fields[first]})
    with pytest.raises(TypeError, match="arguments"):
        cls(*values, None)


@pytest.mark.parametrize("build,message", [
    (lambda: BinaryLCS(2, (((), 1),)), "empty"),
    (lambda: BinaryLCS(2, (((0, 2), 1),)), "out of range"),
    (lambda: BinaryLCS(2, (((0, 1), 0),)), "sign"),
    (lambda: GameSpec(1, 1, 1, 1, [[0.5]], [[[[True]]]]), "sums to"),
    (lambda: GameSpec(1, 1, 1, 1, [[1.0, 0.0]], [[[[True]]]]), "shape"),
    (lambda: ModNGameParams(1, 0, 0), "n must be"),
    (lambda: ModNGameParams(3, 3, 0), "m1, m2"),
    (lambda: LinearSystem(1, ()), "modulus"),
    (lambda: LinearSystem(3, (((0, 1), (1,), 0),)), "length mismatch"),
    (lambda: MonomialUnitary(2, 0, (0,)), "phase vector"),
    (lambda: SOSCertificate(2, 1.0, ((0.0, NCPolynomial(2)),)), "positive"),
])
def test_post_init_validates(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_post_init_normalises():
    u = MonomialUnitary(2, 3, (9, -1))
    assert (u.shift, u.phases) == (1, (1, 7))
    assert u == MonomialUnitary(n=2, shift=1, phases=(1, 7))
    system = LinearSystem(3, (([0, 1], [4, -1], 5),))
    assert system.equations == (((0, 1), (1, 2), 2),)
    lcs = BinaryLCS(2, (([1, 0], 1),))
    assert lcs.constraints == (((1, 0), 1),)
    game = GameSpec(1, 1, 1, 1, [[1]], [[[[1]]]])
    assert game.distribution.dtype == np.float64
    assert game.predicate.dtype == bool
    s = Strategy(2, 1, 1, ([[1]], [[1]]), ([[1]], [[1]]), [1])
    assert all(M.dtype == np.complex128
               for M in s.alice_obs + s.bob_obs + (s.state,))


# Loads every znlcs module, the CLI's included, and prints whether
# dataclasses was imported.
LOAD_EVERY_MODULE = """
import sys
import znlcs, znlcs.cli
for name in list(sys.modules):
    if name.startswith("znlcs."):
        vars(sys.modules[name])
print("dataclasses" in sys.modules)
"""


def test_no_module_imports_dataclasses():
    proc = subprocess.run([sys.executable, "-c", LOAD_EVERY_MODULE],
                          env=subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
