"""The repository's own gates: ``scripts/check_unreferenced.py`` and
``scripts/check_module_sizes.py``, each run on a planted tree and on the
repository itself."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unreferenced = _script("check_unreferenced")
module_sizes = _script("check_module_sizes")


def _plant(root, files):
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


PRODUCT = """\
    '''A planted package module.'''

    __all__ = ["Widget", "build"]


    class Widget:
        def __init__(self):
            self.size = 1

        def __len__(self):
            return self.size

        def spin(self):
            return self.size

        @property
        def colour(self):
            return "red"

        @colour.setter
        def colour(self, value):
            pass


    def build():
        return Widget()
    """

#: A caller of everything in ``PRODUCT`` except ``spin`` and ``colour``.
CALLER = """\
    from repro.widgets import Widget, build

    build()
    """


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A planted repository with an empty allow-list; keyword arguments add
    files to it."""
    monkeypatch.setattr(unreferenced, "ALLOWED", {})

    def plant(**extra):
        return _tree(tmp_path, **extra)

    return plant


def _tree(tmp_path, **extra):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/widgets.py": PRODUCT,
        "examples/use.py": CALLER,
        "examples/colour.py": "from repro.widgets import build\n\nbuild().colour\n",
    }
    files.update(extra)
    return _plant(tmp_path, files)


#: A script that calls ``Widget.spin`` and each definition the unused-import
#: cases plant, so only their imports can be findings.
CALLS = "Widget().spin()\nA()\nf(0)\n"


#: A planted class, completed by each write-only-attribute case.
COUNTER = '"""A planted counter."""\n\n\nclass Counter:\n'


def _findings(root):
    return [problem.split(": ", 1)[1] for problem in unreferenced.violations(root)]


class TestUnreferenced:
    def test_the_repository_has_no_findings(self):
        assert unreferenced.violations(REPO_ROOT) == []

    def test_a_planted_unused_method_fails(self, tree):
        (finding,) = _findings(tree())
        assert finding.startswith("repro.widgets.Widget.spin has no caller")

    def test_main_exits_1_on_a_planted_unused_method(self, tree, monkeypatch, capsys):
        monkeypatch.setattr(unreferenced, "REPO_ROOT", tree())
        assert unreferenced.main() == 1
        assert "Widget.spin" in capsys.readouterr().err

    def test_a_method_called_only_from_tests_fails(self, tree):
        root = tree(**{"tests/test_widgets.py": "Widget().spin()\n"})
        assert [f.split(" ")[0] for f in _findings(root)] == ["repro.widgets.Widget.spin"]

    @pytest.mark.parametrize(
        "where, code",
        [
            ("src/repro/engine.py", "from repro.widgets import build\n\nbuild().spin()\n"),
            ("scripts/tool.py", "def run(widget):\n    return widget.spin()\n"),
            ("benchmarks/bench.py",
             "ENTRY_POINTS = (('widgets', 'repro.widgets', 'Widget', ('spin',)),)\n"),
            ("examples/show.py", "print(getattr(object(), 'spin', None))\n"),
            ("examples/show.py", "print(f'{object().spin()}')\n"),
        ],
        ids=[
            "call", "attribute", "entry-point-string", "getattr-string",
            "f-string-expression",
        ],
    )
    def test_any_use_outside_tests_counts(self, tree, where, code):
        assert _findings(tree(**{where: code})) == []

    def test_a_bare_read_of_a_function_counts(self, tree):
        # ``build`` is module-level: passing it by name uses it.
        root = tree(**{
            "examples/use.py": "from repro.widgets import build\n\nregister = list\n"
                               "register([build])\n",
            "scripts/call.py": "Widget().spin()\n",
        })
        assert _findings(root) == []

    def test_binding_a_function_s_name_does_not_count(self, tree):
        root = tree(**{
            "examples/use.py": "build = None\nfor build in ():\n    pass\n",
            "examples/colour.py": "Widget().colour\n",
        })
        assert sorted(f.split(" ")[0] for f in _findings(root)) == [
            "repro.widgets.Widget.spin",
            "repro.widgets.build",
        ]

    @pytest.mark.parametrize(
        "where, code",
        [
            ("src/repro/other.py", "'''Widget().spin() would be called from here.'''\n"),
            ("src/repro/other.py", "# Widget().spin() is what this would call.\n"),
            # In src/repro the line would also be an unused import.
            ("examples/other.py", "from repro.widgets import spin\n"),
            ("src/repro/other.py", "__all__ = ['spin']\n"),
            # A counter name built by an f-string names no definition.
            ("src/repro/other.py", "NAME = f'{prefix}.spin'\n"),
            # A method is used through an attribute, never a bare name.
            ("benchmarks/hooks.py", "register = list\nregister([spin])\n"),
            # A shared word: a local variable and a help string's word.
            ("scripts/tool.py",
             "def run(parser):\n"
             "    parser.add_argument('--turns', help='how many times to spin')\n"
             "    spin = parser.parse_args().turns\n"
             "    return spin\n"),
            # A dotted path is not the identifier.
            ("benchmarks/bench.py", "TARGETS = ('Widget.spin',)\n"),
            # A package's lazy re-export table is an import, not a use.
            ("src/repro/other.py",
             "__getattr__, __dir__ = lazy_exports(\n"
             "    __name__, {'widgets': ('spin',)}, submodules=('spin',)\n)\n"),
        ],
        ids=[
            "docstring", "comment", "import-line", "all-list", "f-string-literal",
            "bare-name-of-a-method", "local-variable-and-help-word", "dotted-string",
            "lazy-exports-table",
        ],
    )
    def test_naming_without_using_does_not_count(self, tree, where, code):
        root = tree(**{where: code})
        assert [f.split(" ")[0] for f in _findings(root)] == ["repro.widgets.Widget.spin"]

    def test_a_property_setter_does_not_use_its_own_property(self, tree):
        root = tree(**{"examples/colour.py": ""})
        assert sorted(f.split(" ")[0] for f in _findings(root)) == [
            "repro.widgets.Widget.colour",
            "repro.widgets.Widget.colour",
            "repro.widgets.Widget.spin",
        ]

    def test_an_allow_listed_definition_passes(self, tree, monkeypatch):
        monkeypatch.setattr(
            unreferenced, "ALLOWED", {"repro.widgets.Widget.spin": "planted"}
        )
        assert _findings(tree()) == []

    def test_an_allow_list_entry_that_gains_a_caller_fails_as_stale(
        self, tree, monkeypatch
    ):
        monkeypatch.setattr(
            unreferenced, "ALLOWED", {"repro.widgets.Widget.spin": "planted"}
        )
        root = tree(**{"scripts/tool.py": "Widget().spin()\n"})
        (problem,) = unreferenced.violations(root)
        assert problem.startswith("repro.widgets.Widget.spin: allow-listed but now has a caller")

    def test_an_allow_list_entry_that_does_not_exist_fails(self, tree, monkeypatch):
        monkeypatch.setattr(
            unreferenced,
            "ALLOWED",
            {"repro.widgets.Widget.spin": "planted", "repro.widgets.gone": "deleted"},
        )
        (problem,) = unreferenced.violations(tree())
        assert problem == "repro.widgets.gone: allow-listed but does not exist"

    @pytest.mark.parametrize(
        "code, unused",
        [
            ("from typing import Dict, List\n\nX: List[int] = []\n", ["Dict"]),
            ("import os.path\n", ["os"]),
            ("import json as codec\n", ["codec"]),
            ("from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = 0\n",
             ["field"]),
            ("from repro.widgets import build as make, Widget\n\nmake()\n", ["Widget"]),
        ],
        ids=["typing-name", "dotted-module", "alias", "dataclass-field", "from-alias"],
    )
    def test_a_planted_unused_import_fails(self, tree, code, unused):
        root = tree(**{"src/repro/other.py": code, "scripts/call.py": CALLS})
        assert _findings(root) == [
            f"repro.other imports {name} but never uses it" for name in unused
        ]

    @pytest.mark.parametrize(
        "code",
        [
            "from typing import List\n\nX: List[int] = []\n",
            "from typing import Optional\n\ndef f(x: 'Optional[int]') -> None:\n    pass\n",
            "from typing import TYPE_CHECKING, Optional\n\nif TYPE_CHECKING:\n"
            "    from repro.widgets import Widget\n\n"
            "def f(x: Optional['Widget']) -> None:\n    pass\n",
            "from repro.widgets import Widget\n\n__all__ = ['Widget']\n",
            "from __future__ import annotations\n",
            "import os\n\nos.getcwd()\n",
        ],
        ids=["annotation", "string-annotation", "nested-string-annotation",
             "re-exported", "future", "attribute-base"],
    )
    def test_a_used_or_re_exported_import_passes(self, tree, code):
        root = tree(**{"src/repro/other.py": code, "scripts/call.py": CALLS})
        assert _findings(root) == []

    def test_a_package_init_may_import_to_re_export(self, tree):
        root = tree(**{
            "src/repro/sub/__init__.py": "from repro.widgets import Widget\n",
            "scripts/call.py": CALLS,
        })
        assert _findings(root) == []

    def test_an_unused_import_names_its_file_and_line(self, tree):
        root = tree(**{
            "src/repro/other.py": "'''Doc.'''\n\nimport json\n",
            "scripts/call.py": CALLS,
        })
        assert unreferenced.violations(root) == [
            "src/repro/other.py:3: repro.other imports json but never uses it"
        ]

    @pytest.mark.parametrize(
        "code, line",
        [
            ("    def __init__(self):\n        self.hits = 0\n", 6),
            ("    hits = 0\n\n    def bump(self):\n        self.hits += 1\n", 8),
        ],
        ids=["assigned", "augmented"],
    )
    def test_an_attribute_nothing_reads_fails(self, tree, code, line):
        root = tree(**{
            "src/repro/counter.py": COUNTER + code,
            "scripts/call.py": CALLS + "Counter().bump()\n",
        })
        assert unreferenced.violations(root) == [
            f"src/repro/counter.py:{line}: repro.counter.Counter.hits is assigned "
            "but never read, tests included — delete it or read it"
        ]

    @pytest.mark.parametrize(
        "where, code",
        [
            ("examples/show.py", "print(Counter().hits)\n"),
            ("scripts/tool.py", "def hits(counter):\n    return getattr(counter, 'hits')\n"),
            ("tests/test_counter.py", "def test_hits():\n    assert Counter().hits == 0\n"),
        ],
        ids=["attribute", "getattr-string", "test"],
    )
    def test_an_attribute_read_anywhere_passes(self, tree, where, code):
        root = tree(**{
            "src/repro/counter.py": COUNTER + "    def __init__(self):\n        self.hits = 0\n",
            "scripts/call.py": CALLS + "Counter()\n",
            where: code,
        })
        assert _findings(root) == []

    def test_each_allow_list_entry_gives_its_reason(self):
        assert len(unreferenced.ALLOWED) <= 2
        assert all(reason.strip() for reason in unreferenced.ALLOWED.values())


def _module(lines):
    return "".join(f"x{index} = {index}\n" for index in range(lines))


class TestModuleSizes:
    def test_the_repository_is_within_its_limits(self):
        assert module_sizes.violations(REPO_ROOT) == []

    @pytest.mark.parametrize("lines, problems", [(700, 0), (701, 1)])
    def test_a_module_over_the_limit_fails(self, tmp_path, monkeypatch, lines, problems):
        monkeypatch.setattr(module_sizes, "ALLOWED", {})
        root = _plant(tmp_path, {"src/repro/big.py": _module(lines)})
        found = module_sizes.violations(root)
        assert len(found) == problems
        assert all("src/repro/big.py: 701 lines" in problem for problem in found)

    def test_an_allow_listed_module_under_the_limit_fails_until_removed(
        self, tmp_path, monkeypatch
    ):
        root = _plant(tmp_path, {"src/repro/cli.py": _module(699)})
        monkeypatch.setattr(module_sizes, "ALLOWED", {"src/repro/cli.py": 1145})
        (problem,) = module_sizes.violations(root)
        assert "within the limit — remove it from ALLOWED" in problem
        monkeypatch.setattr(module_sizes, "ALLOWED", {})
        assert module_sizes.violations(root) == []

    @pytest.mark.parametrize(
        "lines, message",
        [(1146, "over its ceiling of 1145"), (900, "lower its ceiling")],
        ids=["grew", "shrank"],
    )
    def test_an_allow_listed_module_holds_its_ceiling(
        self, tmp_path, monkeypatch, lines, message
    ):
        root = _plant(tmp_path, {"src/repro/cli.py": _module(lines)})
        monkeypatch.setattr(module_sizes, "ALLOWED", {"src/repro/cli.py": 1145})
        (problem,) = module_sizes.violations(root)
        assert message in problem

    def test_nothing_under_topology_may_be_allow_listed(self, tmp_path, monkeypatch):
        root = _plant(tmp_path, {"src/repro/topology/engine.py": _module(800)})
        monkeypatch.setattr(
            module_sizes, "ALLOWED", {"src/repro/topology/engine.py": 800}
        )
        assert any(
            "nothing under topology/ may be allow-listed" in problem
            for problem in module_sizes.violations(root)
        )

    def test_package_sizes_count_code_lines_only(self, tmp_path):
        root = _plant(
            tmp_path,
            {
                "src/repro/__init__.py": "# a comment\n\nx = 1\n",
                "src/repro/core/a.py": '"""Doc."""\n\n# note\ny = 2\n',
            },
        )
        assert module_sizes.package_sizes(root) == {"repro": 1, "repro.core": 2}
