import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import genotype_oracle as oracle

from econas.genotype import (
    CellSpec,
    Genotype,
    GenotypeError,
    InputRef,
    NetworkConfig,
    NodeSpec,
    NoAlternativeError,
    OperationKind,
    OperationSet,
    OutputRule,
    ParseError,
    SEARCH8,
    ZOO13,
    decode,
    encode,
    legal_inputs,
    mutate,
    random_cell,
    random_genotype,
    slot_diff,
)
from econas.seeding import derive_rng


def make_genotype(seed=0, node_count=4, op_set=SEARCH8, rule=OutputRule.UNUSED_ONLY):
    return random_genotype(
        derive_rng("gen", seed), NetworkConfig(node_count=node_count), op_set, rule
    )


def test_catalog_unique_and_stable():
    values = [op.value for op in OperationKind]
    assert len(values) == len(set(values)) == 15
    for op in OperationKind:
        assert OperationKind(op.value) is op


def test_builtin_op_sets():
    assert len(ZOO13.members) == 13
    assert len(SEARCH8.members) == 8
    assert OperationKind.ZEROS not in ZOO13
    assert OperationKind.ZEROS in SEARCH8
    with pytest.raises(GenotypeError):
        OperationSet("dup", (OperationKind.ZEROS, OperationKind.ZEROS))
    with pytest.raises(GenotypeError):
        OperationSet("empty", ())


def test_random_cell_first_node_uses_cell_inputs():
    # The first intermediate node's input set has exactly the two cell inputs.
    for seed in range(50):
        cell = random_cell(derive_rng(seed), 5, ZOO13, OutputRule.ALL_INTERMEDIATE)
        assert cell.node_count == 5
        first = cell.nodes[0]
        assert first.input_a.kind == InputRef.CELL
        assert first.input_b.kind == InputRef.CELL


def test_random_cell_degenerate_op_set():
    solo = OperationSet("solo", (OperationKind.CONV_3X3,))
    cell = random_cell(derive_rng(1), 1, solo, OutputRule.UNUSED_ONLY)
    node = cell.nodes[0]
    assert node.op_a is OperationKind.CONV_3X3
    assert node.op_b is OperationKind.CONV_3X3
    assert node.input_a in legal_inputs(0)
    assert node.input_b in legal_inputs(0)


def test_random_cell_determinism():
    a = random_cell(derive_rng(42), 5, ZOO13, OutputRule.ALL_INTERMEDIATE)
    b = random_cell(derive_rng(42), 5, ZOO13, OutputRule.ALL_INTERMEDIATE)
    assert a == b


def test_random_cell_empty_error():
    with pytest.raises(GenotypeError):
        random_cell(derive_rng(0), 0, ZOO13, OutputRule.ALL_INTERMEDIATE)


def test_random_genotype_hash_stable_and_seeds_differ():
    g1 = make_genotype(seed=5, node_count=5, op_set=ZOO13)
    g2 = make_genotype(seed=5, node_count=5, op_set=ZOO13)
    assert g1 == g2 and g1.content_hash == g2.content_hash
    differing = sum(
        make_genotype(seed=2 * i).content_hash != make_genotype(seed=2 * i + 1).content_hash
        for i in range(100)
    )
    assert differing >= 99


def test_random_genotype_search_space_valid():
    for seed in range(20):
        g = make_genotype(seed=seed, node_count=4, op_set=SEARCH8)
        assert g.node_count == 4
        g.normal.validate()
        g.reduction.validate()
        for cell in (g.normal, g.reduction):
            for node in cell.nodes:
                assert node.op_a in SEARCH8 and node.op_b in SEARCH8


def test_dag_validity_property():
    # Every input reference points strictly earlier, across sizes and op sets.
    for i in range(10_000):
        node_count = 1 + i % 6
        op_set = ZOO13 if i % 2 else SEARCH8
        cell = random_cell(derive_rng("dag", i), node_count, op_set, OutputRule.UNUSED_ONLY)
        for j, node in enumerate(cell.nodes):
            for ref in (node.input_a, node.input_b):
                if ref.kind == InputRef.NODE:
                    assert ref.index < j


def test_mutate_changes_exactly_one_slot():
    g = make_genotype(seed=3)
    for i in range(500):
        child = mutate(g, derive_rng("mut", i))
        assert slot_diff(g, child) == 1
        assert child.content_hash != g.content_hash
        child.normal.validate()
        child.reduction.validate()


def test_mutate_distribution_uniform_over_cell_and_kind():
    g = make_genotype(seed=9)
    counts = {}
    n = 100_000
    for i in range(n):
        child = mutate(g, derive_rng("dist", i))
        for cell_name in ("normal", "reduction"):
            before, after = getattr(g, cell_name), getattr(child, cell_name)
            if before == after:
                continue
            for na, nb in zip(before.nodes, after.nodes):
                if na == nb:
                    continue
                kind = "op" if (na.op_a != nb.op_a or na.op_b != nb.op_b) else "input"
                counts[(cell_name, kind)] = counts.get((cell_name, kind), 0) + 1
    assert sum(counts.values()) == n
    for key in (("normal", "op"), ("normal", "input"), ("reduction", "op"), ("reduction", "input")):
        assert abs(counts[key] / n - 0.25) < 0.02, (key, counts)


def test_mutate_single_op_set_falls_back_to_inputs():
    solo = OperationSet("solo", (OperationKind.IDENTITY,))
    g = random_genotype(
        derive_rng("solo"), NetworkConfig(node_count=3), solo, OutputRule.UNUSED_ONLY
    )
    for i in range(200):
        child = mutate(g, derive_rng("solo-mut", i))
        # op slots cannot change; the input fallback must carry every mutation
        for ca, cb in zip(
            g.normal.nodes + g.reduction.nodes, child.normal.nodes + child.reduction.nodes
        ):
            assert ca.op_a == cb.op_a and ca.op_b == cb.op_b
        assert slot_diff(g, child) == 1


class _AlwaysOpRng:
    """Forces cell=normal, kind=op on every retry."""

    def randrange(self, n):
        return 0

    def random(self):
        return 0.0


def test_mutate_no_alternative_error():
    solo = OperationSet("solo", (OperationKind.IDENTITY,))
    g = random_genotype(
        derive_rng("solo2"), NetworkConfig(node_count=2), solo, OutputRule.UNUSED_ONLY
    )
    with pytest.raises(NoAlternativeError):
        mutate(g, _AlwaysOpRng())


def test_encode_decode_roundtrip_many():
    for i in range(1000):
        node_count = 1 + i % 5
        op_set = ZOO13 if i % 3 else SEARCH8
        g = random_genotype(
            derive_rng("rt", i), NetworkConfig(node_count=node_count), op_set,
            OutputRule.ALL_INTERMEDIATE if i % 2 else OutputRule.UNUSED_ONLY,
        )
        doc = encode(g)
        g2 = decode(doc)
        assert g2 == g
        assert encode(g2) == doc
        assert g2.content_hash == g.content_hash


def test_encode_canonical():
    g = make_genotype(seed=1)
    doc = encode(g)
    obj = json.loads(doc)
    reordered = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    assert reordered == doc  # already in canonical key order


def test_decode_dangling_reference():
    g = make_genotype(seed=2, node_count=4)
    obj = json.loads(encode(g))
    obj["normal"]["nodes"][3]["input_b"] = "node:5"
    with pytest.raises(ParseError, match=r"normal\.nodes\[3\]\.input_b"):
        decode(json.dumps(obj))


def test_decode_unknown_operation():
    g = make_genotype(seed=2)
    obj = json.loads(encode(g))
    obj["reduction"]["nodes"][0]["op_a"] = "conv_9x9"
    with pytest.raises(ParseError, match="conv_9x9"):
        decode(json.dumps(obj))


def test_decode_malformed_document():
    with pytest.raises(ParseError):
        decode("not json {")
    with pytest.raises(ParseError):
        decode(json.dumps({"kind": "something_else"}))
    g = make_genotype(seed=4)
    obj = json.loads(encode(g))
    obj["node_count"] = 99
    with pytest.raises(ParseError, match="node_count"):
        decode(json.dumps(obj))


# -- decode against the per-field oracle ------------------------------------------------


# Input tokens: canonical ones, node indices past 15 among them, and text
# that str.isdigit or int() reads differently from its canonical form. Each
# strategy draws a copy, since a mutation writes into what it has drawn: a
# shared list could come to hold itself.
_TOKENS = [
    "cell:0", "cell:1", "node:0", "node:1", "node:3", "node:15", "node:16", "node:17",
    "node:01", "cell:2", "node:\uff11", " cell:0", "node:j", "node:-1", "cell:", "node",
    "", 0, 1, -1, 1.5, True, None, ["cell:0"], {"cell": 0},
]
_OPS = [op.value for op in OperationKind] + [
    "conv_9x9", "Zeros", " zeros", "", None, 3, True, ["zeros"], {"op": "zeros"},
]
_NODE_KEYS = ["input_a", "input_b", "op_a", "op_b"]
_TOKEN = st.sampled_from(_TOKENS).map(copy.deepcopy)
_OP = st.sampled_from(_OPS).map(copy.deepcopy)
_ANY = st.sampled_from(_TOKENS + _OPS + [[], {}, "x"]).map(copy.deepcopy)


@st.composite
def _mutation(draw, obj):
    """Change one place of a genotype document object in place."""
    cell = obj[draw(st.sampled_from(["normal", "reduction"]))]
    node = cell["nodes"][draw(st.integers(0, len(cell["nodes"]) - 1))]
    where = draw(st.sampled_from([
        "token", "op", "drop_node_key", "node", "cell", "op_set_name", "op_set_members",
        "op_set", "top", "drop_last_node",
    ]))
    if where == "token":
        node[draw(st.sampled_from(_NODE_KEYS[:2]))] = draw(_TOKEN)
    elif where == "op":
        node[draw(st.sampled_from(_NODE_KEYS[2:]))] = draw(_OP)
    elif where == "drop_node_key":
        del node[draw(st.sampled_from(_NODE_KEYS))]
    elif where == "node":
        cell["nodes"][draw(st.integers(0, len(cell["nodes"]) - 1))] = draw(_ANY)
    elif where == "cell":
        key = draw(st.sampled_from(["output_rule", "nodes"]))
        if draw(st.booleans()):
            del cell[key]
        else:
            cell[key] = draw(_ANY | st.sampled_from([r.value for r in OutputRule]))
    elif where == "op_set_name":
        obj["op_set"]["name"] = draw(st.sampled_from(["search8", "zoo13", "custom", "", 8, None]))
    elif where == "op_set_members":
        members = obj["op_set"]["members"]
        choice = draw(st.sampled_from(["shuffle", "subset", "replace", "empty", "duplicate"]))
        if choice == "shuffle":
            members[:] = draw(st.permutations(members))
        elif choice == "subset":
            del members[draw(st.integers(0, len(members) - 1)):]
        elif choice == "replace":
            members[draw(st.integers(0, len(members) - 1))] = draw(_OP)
        elif choice == "empty":
            members.clear()
        else:
            members.append(members[0])
    elif where == "op_set":
        key = draw(st.sampled_from(["name", "members", None]))
        if key is None:
            obj["op_set"] = draw(_ANY)
        else:
            del obj["op_set"][key]
    elif where == "top":
        key = draw(st.sampled_from(["kind", "node_count", "op_set", "normal", "reduction"]))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_ANY | st.integers(0, 20))
    else:
        cell["nodes"].pop()


@st.composite
def _documents(draw):
    """The canonical document of a random search8 or zoo13 genotype, or one
    with a few places changed (a custom op-set name included)."""
    g = random_genotype(
        random.Random(draw(st.integers(0, 2 ** 32))),
        NetworkConfig(node_count=draw(st.integers(1, 5) | st.integers(15, 18))),
        draw(st.sampled_from([SEARCH8, ZOO13])),
        draw(st.sampled_from(list(OutputRule))),
    )
    doc = encode(g)
    mutations = draw(st.integers(0, 3))
    if not mutations:
        return doc
    obj = json.loads(doc)
    for _ in range(mutations):
        try:
            draw(_mutation(obj))
        except (KeyError, IndexError, TypeError, AttributeError):
            break  # an earlier change removed what this one would change
    return json.dumps(obj, sort_keys=True, indent=draw(st.sampled_from([None, 1])))


def _outcome(decoder, doc):
    try:
        return decoder(doc)
    except Exception as exc:  # the type and the text must match too
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_decode_equals_the_per_field_oracle(doc):
    got, expected = _outcome(decode, doc), _outcome(oracle.decode, doc)
    assert got == expected
    if isinstance(got, Genotype):
        assert got.op_set == expected.op_set and encode(got) == encode(expected)


@st.composite
def _genotypes(draw):
    """Any genotype: a built-in or custom op set, 1 to 6 nodes, each cell's
    output rule, inputs and operations drawn slot by slot."""
    custom = draw(st.lists(st.sampled_from(list(OperationKind)), min_size=1, unique=True))
    op_set = draw(st.sampled_from([SEARCH8, ZOO13, OperationSet("custom", tuple(custom))]))
    inputs = [st.sampled_from(legal_inputs(j)) for j in range(draw(st.integers(1, 6)))]
    ops = st.sampled_from(op_set.members)

    def cell():
        nodes = tuple(NodeSpec(draw(i), draw(i), draw(ops), draw(ops)) for i in inputs)
        return CellSpec(nodes, draw(st.sampled_from(list(OutputRule))))

    return Genotype(cell(), cell(), op_set)


@settings(max_examples=200, deadline=None)
@given(_genotypes())
def test_every_canonical_document_round_trips(g):
    doc = encode(g)
    copy = decode(doc)
    assert copy == g and encode(copy) == doc


@settings(max_examples=200, deadline=None)
@given(_genotypes(), st.data())
def test_each_one_field_corruption_is_rejected_as_the_oracle_rejects_it(g, data):
    obj = json.loads(encode(g))
    cell = obj[data.draw(st.sampled_from(["normal", "reduction"]))]
    j = data.draw(st.integers(0, g.node_count - 1))
    field = data.draw(st.sampled_from(["op", "input", "node_count", "kind", "output_rule"]))
    if field == "op":
        outside = [op.value for op in OperationKind if op not in g.op_set] or ["conv_9x9"]
        cell["nodes"][j][data.draw(st.sampled_from(["op_a", "op_b"]))] = data.draw(
            st.sampled_from(outside))
    elif field == "input":
        dangling = "node:%d" % data.draw(st.integers(j, j + 3))
        cell["nodes"][j][data.draw(st.sampled_from(["input_a", "input_b"]))] = dangling
    elif field == "node_count":
        obj["node_count"] = data.draw(st.integers(0, 8).filter(lambda n: n != g.node_count))
    elif field == "kind":
        obj["kind"] = data.draw(st.sampled_from(["genotype_v2", "", None]))
    else:
        cell["output_rule"] = data.draw(st.sampled_from(["all", "UNUSED_ONLY", None]))
    doc = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    got = _outcome(decode, doc)
    assert got == _outcome(oracle.decode, doc)
    assert isinstance(got, tuple) and got[0] is ParseError


def test_hash_equality_iff_structural_equality():
    for i in range(200):
        a = make_genotype(seed=i)
        b = make_genotype(seed=i + 10_000)
        assert (a == b) == (a.content_hash == b.content_hash)
        copy = decode(encode(a))
        assert copy == a and copy.content_hash == a.content_hash
        child = mutate(a, derive_rng("hash-mut", i))
        assert child != a and child.content_hash != a.content_hash


def test_genotype_cross_cell_node_count_mismatch():
    c1 = random_cell(derive_rng(0), 3, SEARCH8, OutputRule.UNUSED_ONLY)
    c2 = random_cell(derive_rng(1), 4, SEARCH8, OutputRule.UNUSED_ONLY)
    with pytest.raises(GenotypeError):
        Genotype(c1, c2, SEARCH8)


def test_genotype_rejects_foreign_operation():
    nodes = (
        NodeSpec(InputRef.cell(0), InputRef.cell(1), OperationKind.CONV_3X3, OperationKind.IDENTITY),
    )
    cell = CellSpec(nodes, OutputRule.UNUSED_ONLY)
    with pytest.raises(GenotypeError, match="conv_3x3"):
        Genotype(cell, cell, SEARCH8)  # conv_3x3 is not a search8 member


def test_network_config_presets():
    assert NetworkConfig.for_zoo().node_count == 5
    assert NetworkConfig.for_search().node_count == 4
    assert NetworkConfig.for_zoo().stack_n == 6
    with pytest.raises(GenotypeError):
        NetworkConfig(node_count=0)
