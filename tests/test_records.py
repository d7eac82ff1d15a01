"""The package's records: immutable, compared by value (a gauge by
identity), built and copied through their checks, and imported without
`dataclasses` or `typing`."""

import ast
import copy
import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from quasimod import (INF, AxiomReport, CauchyClassification, CoverResult,
                      DirectedGraph, DiscreteMeasureSpace, DynamicCostSchedule,
                      Edge, FiniteTopology, GaugeSpec, JoinReport, LpNet,
                      LpTailReport, LuxemburgResult, OneSidedPair,
                      PartialFunction, Profile, ScaleGrid, TransportResult,
                      TruncatedSequenceFamily, UnitBallReport, check_axioms,
                      critical_thresholds, heine_borel_report, make_min_cap,
                      verify_join_equality)

from contract import (GRID, INF_READS, NUMBER_READERS, PHI, ROW, TABLE,
                      TABLE_READERS, TABLE_VALUES, check, held_tests,
                      table_gauge)

SRC = Path(__file__).resolve().parent.parent / "src"

TOPOLOGY = FiniteTopology(("a", "b"), (1, 3))

# one instance of every record class, by class name
RECORDS = {
    "AxiomReport": lambda: check_axioms(table_gauge()),
    "CauchyClassification": lambda: CauchyClassification("bi", 1, 1, 1),
    "CoverResult": lambda: CoverResult(("a",), 1.0, 1.0, "forward",
                                       ("a", "b"), True),
    "TransportResult": lambda: TransportResult(True, ("a",), ("b",)),
    "LpTailReport": lambda: LpTailReport(True, (1.0,), 1, True, None),
    "LpNet": lambda: LpNet(((0.0,),), 2.0, 0.5, True),
    "HeineBorelReport": lambda: heine_borel_report(table_gauge()),
    "LuxemburgResult": lambda: LuxemburgResult(1.0, (0.5, 1.0), 3),
    "UnitBallReport": lambda: UnitBallReport(1.0, 1.0, True, True, True),
    "OneSidedPair": lambda: OneSidedPair(PHI, PHI),
    "ThresholdSet": lambda: critical_thresholds(table_gauge()),
    "FiniteTopology": lambda: TOPOLOGY,
    "JoinReport": lambda: verify_join_equality(table_gauge()),
    "GaugeSpec": table_gauge,
    "ScaleGrid": lambda: GRID,
    "Profile": lambda: Profile(GRID, (2.0, 1.0)),
    "Edge": lambda: Edge("a", "b", 1.0, 2.0),
    "DirectedGraph": lambda: DirectedGraph(("a", "b"),
                                           (Edge("a", "b", 1.0, 2.0),)),
    "DynamicCostSchedule": lambda: DynamicCostSchedule((0.0,), {(0.0, 0): 1.0}),
    "DiscreteMeasureSpace": lambda: DiscreteMeasureSpace(("x",), {"x": 1.0}),
    "MusielakOrlicz": lambda: PHI,
    "PartialFunction": lambda: PartialFunction(("a",), {"a": 0.0}, 1.0),
    "TruncatedSequenceFamily": lambda: TruncatedSequenceFamily(((1.0,),), 2.0),
}


def loaded(code: str, modules: set) -> list:
    """The modules of `modules` that `code`, run under `python -S` with the
    package on the path and QUASIMOD_LOG unset, leaves in sys.modules."""
    env = {k: v for k, v in os.environ.items() if k != "QUASIMOD_LOG"}
    env["PYTHONPATH"] = str(SRC)
    code += f"; print(*sorted({modules!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    found = loaded("import sys, quasimod.cli", {"dataclasses", "inspect"})
    assert found == [], f"import quasimod.cli loaded {found}"


def test_the_cli_imports_and_runs_without_typing_logging_or_csv(tmp_path):
    # the records are collections.namedtuples, logging is imported under
    # QUASIMOD_LOG only, csv for a .csv report only, and the command line is
    # read without argparse, which imports gettext
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"regime": "additive", "points": ["a", "b"],
                               "grid": [1, 2], "table": {"a|b": [2, 1],
                                                         "b|a": [1, 0.5]}}))
    unread = {"typing", "logging", "csv", "argparse", "gettext"}
    found = loaded("import sys, quasimod.cli", unread)
    assert found == [], f"import quasimod.cli loaded {found}"
    found = loaded("import sys, quasimod.cli; assert quasimod.cli.main(["
                   f"'check-axioms', '--input', {str(src)!r}, '--output', "
                   f"{str(tmp_path / 'r.json')!r}]) == 0", unread)
    assert found == [], f"check-axioms loaded {found}"


# every named-tuple record of the package, by module
NAMED = {
    "axioms": ("AxiomReport", "Violation"),
    "cli": ("_PairMap", "_RowTable"),
    "completeness": ("CauchyClassification", "CoverResult", "HeineBorelReport",
                     "HeineBorelRow", "LpNet", "LpTailReport",
                     "TransportResult"),
    "luxemburg": ("LuxemburgResult",),
    "orlicz": ("OneSidedPair", "UnitBallReport"),
    "topology": ("FiniteTopology", "JoinReport", "ThresholdSet"),
}


def named_classes(module):
    """The named-tuple classes `module` defines, by name."""
    return {name: obj for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == module.__name__}


def test_the_named_records_are_the_listed_ones():
    found = {stem: tuple(sorted(named_classes(
        importlib.import_module(f"quasimod.{stem}"))))
        for stem in sorted(NAMED)}
    assert found == NAMED
    for path in sorted((SRC / "quasimod").glob("*.py")):
        if path.stem not in NAMED:
            assert not named_classes(importlib.import_module(
                f"quasimod.{path.stem}")), path.stem


@pytest.mark.parametrize("module, name", [(m, n) for m in sorted(NAMED)
                                          for n in NAMED[m]])
def test_a_named_record_keeps_the_shape_its_class_body_gives(module, name):
    """Fields, defaults and docstring as the class body reads them; a record
    is a tuple that pickles, copies and compares as one."""
    cls = getattr(importlib.import_module(f"quasimod.{module}"), name)
    body, = (node for node in ast.parse(
        (SRC / "quasimod" / f"{module}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == name)
    fields = tuple(node.target.id for node in body.body
                   if isinstance(node, ast.AnnAssign))
    defaults = {node.target.id: ast.literal_eval(node.value)
                for node in body.body
                if isinstance(node, ast.AnnAssign) and node.value is not None}
    assert cls.__name__ == cls.__qualname__ == name
    assert cls._fields == fields and cls.__match_args__ == fields
    assert cls._field_defaults == defaults
    assert tuple(cls.__annotations__) == fields
    # from 3.13 the compiler strips a docstring's indentation
    assert inspect.cleandoc(cls.__doc__) == (
        ast.get_docstring(body) or f"{name}({', '.join(fields)}"
                                   f"{',' if len(fields) == 1 else ''})")
    assert cls.__mro__[1:] == (tuple, object)
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert type(record).__name__ == name
    assert record == values and hash(record) == hash(values)
    assert cls._make(values) == record and record._asdict() == dict(
        zip(fields, values))
    assert record._replace(**{fields[0]: "x"}) == ("x", *values[1:])
    assert len(cls(*values[:len(fields) - len(defaults)])) == len(fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(record, protocol))
        assert type(twin) is cls and twin == record
    for twin in (copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_to_a_record_raises_attribute_error(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_copy_is_an_equal_record(name):
    record = RECORDS[name]()
    twin = copy.copy(record)
    assert type(twin) is type(record) and repr(twin) == repr(record)
    # a gauge is equal only to itself
    assert (twin == record) is (name != "GaugeSpec")


def test_records_compare_and_hash_by_value():
    assert ScaleGrid((1, 2)) == GRID and hash(ScaleGrid((1, 2))) == hash(GRID)
    assert ScaleGrid((1.0, 3.0)) != GRID
    # a slotted record equals only its class
    assert GRID != ((1.0, 2.0),)
    assert Edge("a", "b", 1.0, 2.0) != ("a", "b", 1.0, 2.0)
    assert Edge("a", "b", 1.0, 2) == Edge("a", "b", 1.0, 2.0)
    assert len({Edge("a", "b", 1.0, 2.0), Edge("a", "b", 1.0, 2)}) == 1
    # a named tuple equals the plain tuple of its values
    assert LuxemburgResult(1.0, (0.5, 1.0), 3) == (1.0, (0.5, 1.0), 3)
    assert DirectedGraph(("a",), ()) == DirectedGraph(["a"], [], {"a": 1.0})


def test_a_table_on_an_equal_grid_is_its_own_tabulation():
    tab = table_gauge()
    assert tab.tabulated(ScaleGrid((1, 2))) is tab
    assert tab.tabulated(ScaleGrid((1.0, 3.0))) is not tab


def test_equal_topologies_share_one_listing():
    twin = FiniteTopology(("a", "b"), (1, 3))
    other = FiniteTopology(("a", "b"), (3, 2))
    assert twin == TOPOLOGY and twin is not TOPOLOGY
    doc = JoinReport(TOPOLOGY, twin, other, other, False).to_json()
    assert doc["tau_plus"] is doc["tau_minus"]
    assert doc["join"] is doc["tau_sym"]
    assert doc["tau_plus"] is not doc["join"]


def test_gauges_compare_by_identity():
    g = table_gauge()
    twin = g._replace()
    assert g == g and twin != g
    assert hash(g) == object.__hash__(g)
    assert len({g, twin}) == 2


def test_reprs_name_the_fields():
    assert repr(GRID) == "ScaleGrid(scales=(1.0, 2.0))"
    assert repr(Edge("a", "b", 1.0, 2)) == "Edge(u='a', v='b', mu=1.0, cost=2.0)"
    # fn and table stay out of a gauge's repr
    assert repr(table_gauge()) == (
        "GaugeSpec(regime=<Regime.ADDITIVE: 'additive'>, points=('a', 'b'), "
        "conorm=None, grid=ScaleGrid(scales=(1.0, 2.0)), "
        "claims_symmetric=False, claims_convex=False, name='gauge')")


def test_profiles_and_table_rows_read_inf_and_keep_the_ray():
    """"inf" is +inf in a profile and a table row, as in a document; a
    negative or NaN value keeps the range message (the profile-value-* and
    table-value-* contract rows)."""
    assert Profile(GRID, ("inf", 0.0)).values == (INF, 0.0)
    assert table_gauge({**TABLE, ("a", "b"): ("inf", 0)}).table["a", "b"] \
        == (INF, 0.0)


# readers held under the ids these tests had before tests/contract.py
globals().update(held_tests("test_records"))


@pytest.mark.parametrize("value", TABLE_VALUES)
@pytest.mark.parametrize("reader", TABLE_READERS)
def test_distance_tables_read_numbers_by_the_number_rule(reader, value):
    name = TABLE_READERS[reader]
    if value == "inf" and name in INF_READS:  # +inf, as in a document
        assert NUMBER_READERS[name][0]("inf") == INF_READS[name]
    else:
        assert check(ROW[f"{name}-{value}"]) is None


def test_replace_goes_through_the_checks():
    with pytest.raises(ValueError, match="edge measure must be positive"):
        Edge("a", "b", 1.0, 2.0)._replace(mu=-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        GRID._replace(scales=(2.0, 1.0))
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        TruncatedSequenceFamily(((1.0,),), 2.0)._replace(p=0.5)
    # a copy that changes a checked field is normalized like a new one
    assert Edge("a", "b", 1.0, 2.0)._replace(cost=3).cost == 3.0
    assert repr(PartialFunction(("a",), {"a": 0.0}, 1.0)._replace(
        domain=["a"])) == repr(PartialFunction(("a",), {"a": 0.0}, 1.0))


def test_replacing_a_table_value_raises_what_building_it_raises():
    bad = dict(TABLE)
    bad["a", "b"] = (-1, 1.0)
    with pytest.raises(ValueError) as built:
        table_gauge(bad)
    with pytest.raises(ValueError) as replaced:
        table_gauge()._replace(table=bad)
    assert str(replaced.value) == str(built.value)
    assert str(built.value).startswith("table value for ('a', 'b')")


def test_replace_rebuilds_the_point_index_and_the_columns():
    g = table_gauge()
    flipped = g._replace(points=("b", "a"))
    assert [flipped.index(p) for p in ("a", "b")] == [1, 0]
    assert flipped.matrix(1.0) == ((0.0, 1.0), (2.0, 0.0))
    halved = g._replace(table={k: tuple(v / 2 for v in row)
                               for k, row in TABLE.items()})
    assert halved.matrix(1.0) == ((0.0, 1.0), (0.5, 0.0))
    assert g.matrix(1.0) == ((0.0, 2.0), (1.0, 0.0))
    closed = make_min_cap({("a", "b"): 1.0, ("b", "a"): 2.0}, grid=GRID)
    assert closed._replace(name="renamed").matrix(1.5) == closed.matrix(1.5)


def test_traced_methods_live_in_their_own_class():
    assert isinstance(vars(DiscreteMeasureSpace)["from_json"], classmethod)
    assert callable(vars(FiniteTopology)["to_json"])
    assert callable(vars(GaugeSpec)["value"])


def test_axiom_report_keeps_its_default_notes():
    report = AxiomReport(("zero-self",), ())
    assert report.notes == () and report.ok
