"""The four facts a ``GroupDescriptor`` decodes from its kind, and a scan
that no other module decodes a kind itself."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from ramify.ordered_group import int_lex, p_inverted, quadratic, zero


FAMILY_FACTS = [
    (int_lex(1), (1, 0, 0, False)),
    (int_lex(3), (3, 0, 0, False)),
    (p_inverted(2), (1, 2, 0, True)),
    (p_inverted(5), (1, 5, 0, True)),
    (quadratic(2), (2, 0, 2, True)),
    (quadratic(3), (2, 0, 3, True)),
]
FACT_NAMES = ("width", "prime", "radicand", "is_dense")


@pytest.mark.parametrize("descriptor, facts", FAMILY_FACTS, ids=[str(d) for d, _ in FAMILY_FACTS])
def test_a_descriptor_states_its_family_facts(descriptor, facts):
    def read(d):
        return tuple(getattr(d, name) for name in FACT_NAMES)

    assert read(descriptor) == facts
    assert len(zero(descriptor).nums) == descriptor.width
    for copied in (pickle.loads(pickle.dumps(descriptor)), copy.copy(descriptor), copy.deepcopy(descriptor)):
        assert copied == descriptor and read(copied) == facts
    for name in FACT_NAMES:
        with pytest.raises(AttributeError):
            setattr(descriptor, name, 0)
        with pytest.raises(AttributeError):
            delattr(descriptor, name)
    assert read(descriptor) == facts


# where a module other than ordered_group may name a group kind, as
# (module, top-level name, the code or None for any): the literal-head
# table, the head check that reads it and parse_group's list of kinds,
# which are literal syntax, not rules of a family
KIND_EXEMPT = {
    ("literals", "<import>", None),
    ("literals", "_ELEMENT_FORMS", None),
    ("literals", "parse_group", None),
    ("literals", "_parse_element_tokens", "descriptor.kind != kind"),
}
CUT_KINDS = {"whole", "principal", "open", "frontier", "frontier_ge"}


def _reads_a_cut_kind(node, parent) -> bool:
    """Whether ``node``, a ``.kind`` read, is a cut's: read off a name
    ``cut``, or compared with nothing but cut kinds."""
    if isinstance(node.value, ast.Name) and node.value.id == "cut":
        return True
    if not isinstance(parent, ast.Compare):
        return False
    others = [x for x in (parent.left, *parent.comparators) if x is not node]
    return all(isinstance(x, ast.Constant) and x.value in CUT_KINDS for x in others)


def _group_kind_reads(source: str):
    """(scope, line, code) of each place a module names a KIND_* constant
    or reads a ``.kind`` that is not a cut's: the top-level name it sits
    in, and the name or the comparison that reads the kind."""
    for top in ast.parse(source).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            scope = "<import>"
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            scope = top.targets[0].id
        else:
            scope = getattr(top, "name", "<module>")
        parents = {child: node for node in ast.walk(top) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "kind":
                parent = parents.get(node)
                if not _reads_a_cut_kind(node, parent):
                    read = parent if isinstance(parent, ast.Compare) else node
                    yield scope, node.lineno, ast.get_source_segment(source, read)
            elif isinstance(node, ast.alias) and node.name.startswith("KIND_"):
                yield scope, node.lineno, node.name
            elif isinstance(node, ast.Name) and node.id.startswith("KIND_"):
                yield scope, node.lineno, node.id


def test_only_ordered_group_decodes_a_group_kind():
    # every other module reads width, prime, radicand or is_dense
    package = Path(zero.__code__.co_filename).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "ordered_group":
            continue
        for scope, line, code in _group_kind_reads(path.read_text()):
            if (path.stem, scope, None) not in KIND_EXEMPT and (path.stem, scope, code) not in KIND_EXEMPT:
                found.append(f"{path.name}:{line} {code!r} in {scope}")
    assert found == []
