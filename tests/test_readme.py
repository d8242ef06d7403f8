"""The README's "Library layout" table names only code that exists, its
function-spec table is `generators.KINDS`, its config key table is
`experiments.SECTIONS`, its operator table is `experiments.OPERATORS`,
its config example runs with each kind's keys, and its study tables are
the study reports."""
import configparser
import csv
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _layout_rows():
    text = README.read_text()
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        module = re.fullmatch(r"`(wss\.\w+)`", cells[0])
        if module:
            yield module.group(1), re.findall(r"`([^`]+)`", cells[1])


def test_library_layout_table_names_existing_attributes():
    rows = list(_layout_rows())
    assert len(rows) >= 8, "the Library layout table was not found"
    missing = []
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        # entries that are not plain identifiers, such as `wht_1d/2d`, are skipped
        missing += [f"{module_name}.{name}" for name in names
                    if IDENTIFIER.fullmatch(name) and not hasattr(module, name)]
    assert not missing, f"README names code that does not exist: {missing}"


def test_config_example_runs(tmp_path, capsys):
    from wss.cli import main

    example = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    assert "[sweep]" in example and "[weak]" in example
    (tmp_path / "example.ini").write_text(example)
    assert main(["run", str(tmp_path / "example.ini"), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.csv").read_text().count("\n") > 4


def test_config_example_gives_each_kind_its_keys():
    from wss.experiments import SECTIONS

    text = README.read_text()
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.read_string(text.split("```ini\n", 1)[1].split("```", 1)[0])
    shown = {}
    for name in parser.sections():
        shown.setdefault(parser[name]["experiment"], []).append(set(parser[name]) - {"experiment", "seed"})
    expected = {kind: [{row[0] for row in rows} - {"mode"}] for kind, (_, _, rows) in SECTIONS.items()}
    assert shown == expected
    assert "theorem1 also accepts `mode`" in text  # the one key the example leaves out


def test_operator_table_is_the_operators_table():
    from wss.experiments import OPERATORS

    text = README.read_text().split("## Weak-type operators", 1)[1]
    table = text.split("| operator | dim | row | computes | cost |\n", 1)[1].split("\n\n", 1)[0]
    dims = {"1": 1, "2": 2, "1 or 2": None}
    readme = {}
    for line in table.splitlines()[1:]:
        operators, dim, row = [cell.strip() for cell in line.strip().strip("|").split("|")][:3]
        readme.update({op: (dims[dim], row.strip("`")) for op in re.findall(r"`([^`]+)`", operators)})
    assert readme == {op: (dims, row) for op, (_, dims, row) in OPERATORS.items()}


def test_function_spec_table_is_the_schema():
    from wss.generators import KINDS, REQUIRED

    named = {REQUIRED: "required", None: "the run's seed"}  # the defaults the table spells out
    text = README.read_text().split("## Function specs", 1)[1]
    table = text.split("| kind | key | type | default | range |\n", 1)[1].split("\n\n", 1)[0]
    readme = {}
    for line in table.splitlines()[1:]:
        kind, key, type_, default, _ = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        keys = readme.setdefault(kind, {})
        if key != "none":
            keys[key] = (type_, default if default in named.values() else float(default))
    schema = {kind: {key: (option.type.__name__, named.get(option.default, option.default))
                     for key, option in keys.items()} for kind, keys in KINDS.items()}
    assert readme == schema


def test_config_key_table_is_the_sections_table():
    from wss.experiments import SECTIONS
    from wss.generators import REQUIRED

    named = {REQUIRED: "required", None: "none"}  # the defaults the table spells out
    text = README.read_text().split("One table, `wss.experiments.SECTIONS`", 1)[1]
    table = text.split("| kind | key | read as | default |\n", 1)[1].split("\n\n", 1)[0]
    readme = {}
    for line in table.splitlines()[1:]:
        kind, key, reader, default = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        readme.setdefault(kind, []).append((key, None if reader == "not read" else reader, default))
    schema = {kind: [(key, reader, named.get(default, default)) for key, _, reader, default in rows]
              for kind, (_, _, rows) in SECTIONS.items()}
    assert readme == schema


def _table(text, header):
    """The rows of the Markdown table under `header`, as lists of cells."""
    table = text.split(header + "\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in table.splitlines()[1:]]


@pytest.mark.parametrize("config, row, header, name", [
    ("theorem1-spike.ini", "empirical_constant", "| target | B=5 | B=6 | B=7 |", "target-{}-B{}"),
    ("weak-type-levels.ini", "suite_max", "| operator | B=5 | B=6 | B=7 |", "{}-B{}"),
], ids=["theorem1", "weak-type"])
def test_study_tables_are_the_study_reports(tmp_path, capsys, config, row, header, name):
    from wss.cli import main

    text = README.read_text().split("## Studies", 1)[1]
    assert main(["run", str(README.parent / "configs" / "studies" / config), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="") as handle:
        report = {r["experiment"]: r["value"] for r in csv.DictReader(handle) if r["param"] == row}
    readme = {name.format(cells[0], bits): cells[i] for cells in _table(text, header)
              for i, bits in enumerate((5, 6, 7), 1)}
    assert readme == {section: f"{float(value):.4f}" for section, value in report.items()}
