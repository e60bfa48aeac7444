"""Cell-based network genotypes: random generation, mutation, serialization.

A genotype is a pair of cell DAGs (normal + reduction). Each intermediate
node consumes two earlier values (the two cell inputs or earlier nodes),
applies one operation to each, and sums the results. No tensors are ever
built here; the genotype is a pure description that evaluators interpret.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from enum import Enum


class GenotypeError(ValueError):
    """Invalid genotype structure or parameters."""


class ParseError(GenotypeError):
    """Malformed genotype document; the message names the offending path."""


class NoAlternativeError(GenotypeError):
    """Mutation could not find a slot with a legal alternative value."""


class OperationKind(str, Enum):
    """Fixed operation catalog (15 concrete ops; one slot kept free for
    extension so the catalog never exceeds 16 identifiers)."""

    AVG_POOL_3X3 = "avg_pool_3x3"
    MAX_POOL_3X3 = "max_pool_3x3"
    MAX_POOL_5X5 = "max_pool_5x5"
    MAX_POOL_7X7 = "max_pool_7x7"
    IDENTITY = "identity"
    CONV_1X1 = "conv_1x1"
    CONV_3X3 = "conv_3x3"
    SEP_CONV_3X3 = "sep_conv_3x3"
    SEP_CONV_5X5 = "sep_conv_5x5"
    SEP_CONV_7X7 = "sep_conv_7x7"
    DIL_CONV_3X3 = "dil_conv_3x3"
    DIL_CONV_5X5 = "dil_conv_5x5"
    CONV_1X3_3X1 = "conv_1x3_3x1"
    CONV_1X7_7X1 = "conv_1x7_7x1"
    ZEROS = "zeros"


@dataclass(frozen=True)
class OperationSet:
    """Named, ordered subset of the catalog that sampling is restricted to."""

    name: str
    members: tuple[OperationKind, ...]

    def __post_init__(self):
        if not self.members:
            raise GenotypeError("operation set %r has no members" % self.name)
        if len(set(self.members)) != len(self.members):
            raise GenotypeError("operation set %r has duplicate members" % self.name)

    def __contains__(self, op: OperationKind) -> bool:
        return op in self.members


ZOO13 = OperationSet(
    "zoo13",
    (
        OperationKind.AVG_POOL_3X3,
        OperationKind.MAX_POOL_3X3,
        OperationKind.MAX_POOL_5X5,
        OperationKind.MAX_POOL_7X7,
        OperationKind.IDENTITY,
        OperationKind.CONV_1X1,
        OperationKind.CONV_3X3,
        OperationKind.SEP_CONV_3X3,
        OperationKind.SEP_CONV_5X5,
        OperationKind.SEP_CONV_7X7,
        OperationKind.DIL_CONV_3X3,
        OperationKind.CONV_1X3_3X1,
        OperationKind.CONV_1X7_7X1,
    ),
)

SEARCH8 = OperationSet(
    "search8",
    (
        OperationKind.ZEROS,
        OperationKind.AVG_POOL_3X3,
        OperationKind.MAX_POOL_3X3,
        OperationKind.SEP_CONV_3X3,
        OperationKind.IDENTITY,
        OperationKind.SEP_CONV_5X5,
        OperationKind.DIL_CONV_3X3,
        OperationKind.DIL_CONV_5X5,
    ),
)

BUILTIN_OP_SETS = {s.name: s for s in (ZOO13, SEARCH8)}


@dataclass(frozen=True, order=True)
class InputRef:
    """Reference to one of the two cell inputs or to an earlier node.

    ``cell:0`` / ``cell:1`` are the outputs of the two preceding cells;
    ``node:i`` is intermediate node i of the same cell (i < consuming node).
    """

    kind: str
    index: int

    CELL = "cell"
    NODE = "node"

    @staticmethod
    def cell(index: int) -> "InputRef":
        if index not in (0, 1):
            raise GenotypeError("cell input index must be 0 or 1, got %d" % index)
        return InputRef(InputRef.CELL, index)

    @staticmethod
    def node(index: int) -> "InputRef":
        if index < 0:
            raise GenotypeError("node index must be >= 0, got %d" % index)
        return InputRef(InputRef.NODE, index)

    def token(self) -> str:
        return "%s:%d" % (self.kind, self.index)

    @staticmethod
    def from_token(token: str, path: str = "input") -> "InputRef":
        kind, sep, idx = token.partition(":")
        if not sep or kind not in (InputRef.CELL, InputRef.NODE) or not idx.isdigit():
            raise ParseError("%s: malformed input reference %r" % (path, token))
        ref = InputRef(kind, int(idx))
        if ref.kind == InputRef.CELL and ref.index not in (0, 1):
            raise ParseError("%s: cell input index out of range in %r" % (path, token))
        return ref


def legal_inputs(node_index: int) -> list[InputRef]:
    """Input choices for intermediate node ``node_index`` (size node_index + 2)."""
    return [InputRef.cell(0), InputRef.cell(1)] + [
        InputRef.node(i) for i in range(node_index)
    ]


@dataclass(frozen=True)
class NodeSpec:
    """One intermediate node: output = op_a(input_a) + op_b(input_b)."""

    input_a: InputRef
    input_b: InputRef
    op_a: OperationKind
    op_b: OperationKind


class OutputRule(str, Enum):
    # all_intermediate: concat every intermediate node (zoo convention)
    # unused_only: concat only nodes no other node consumes (search convention)
    ALL_INTERMEDIATE = "all_intermediate"
    UNUSED_ONLY = "unused_only"


@dataclass(frozen=True)
class CellSpec:
    nodes: tuple[NodeSpec, ...]
    output_rule: OutputRule

    def __post_init__(self):
        if not self.nodes:
            raise GenotypeError("cell must have at least one node")
        self.validate()

    def validate(self) -> None:
        for j, node in enumerate(self.nodes):
            for slot, ref in (("input_a", node.input_a), ("input_b", node.input_b)):
                if ref.kind == InputRef.NODE and ref.index >= j:
                    raise GenotypeError(
                        "nodes[%d].%s: reference to node %d does not point strictly "
                        "earlier" % (j, slot, ref.index)
                    )

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Genotype:
    normal: CellSpec
    reduction: CellSpec
    op_set: OperationSet

    def __post_init__(self):
        if self.normal.node_count != self.reduction.node_count:
            raise GenotypeError(
                "normal and reduction cells must share node count (%d vs %d)"
                % (self.normal.node_count, self.reduction.node_count)
            )
        for cell_name, cell in (("normal", self.normal), ("reduction", self.reduction)):
            for j, node in enumerate(cell.nodes):
                for slot, op in (("op_a", node.op_a), ("op_b", node.op_b)):
                    if op not in self.op_set:
                        raise GenotypeError(
                            "%s.nodes[%d].%s: operation %s not in op set %r"
                            % (cell_name, j, slot, op.value, self.op_set.name)
                        )

    @property
    def node_count(self) -> int:
        return self.normal.node_count

    @functools.cached_property
    def _document(self) -> str:
        """The canonical document, built once per instance from the fields."""
        return _build_document(self)

    @functools.cached_property
    def content_hash(self) -> str:
        """Canonical content hash; equal iff the genotypes are structurally equal."""
        return hashlib.sha256(self._document.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class NetworkConfig:
    """Macro layout of the stacked network a genotype describes."""

    node_count: int
    stack_n: int = 6

    def __post_init__(self):
        if self.stack_n < 1 or self.node_count < 1:
            raise GenotypeError("NetworkConfig fields must be positive")

    @staticmethod
    def for_zoo() -> "NetworkConfig":
        return NetworkConfig(node_count=5)

    @staticmethod
    def for_search() -> "NetworkConfig":
        return NetworkConfig(node_count=4)


def random_cell(
    rng: random.Random,
    node_count: int,
    op_set: OperationSet,
    output_rule: OutputRule,
) -> CellSpec:
    """Sample a cell node by node: two inputs uniform over the legal set,
    two operations uniform over ``op_set``."""
    nodes = []
    for j in range(node_count):
        choices = legal_inputs(j)
        input_a = choices[rng.randrange(len(choices))]
        input_b = choices[rng.randrange(len(choices))]
        op_a = op_set.members[rng.randrange(len(op_set.members))]
        op_b = op_set.members[rng.randrange(len(op_set.members))]
        nodes.append(NodeSpec(input_a, input_b, op_a, op_b))
    return CellSpec(tuple(nodes), output_rule)


def random_genotype(
    rng: random.Random,
    config: NetworkConfig,
    op_set: OperationSet,
    output_rule: OutputRule,
) -> Genotype:
    normal = random_cell(rng, config.node_count, op_set, output_rule)
    reduction = random_cell(rng, config.node_count, op_set, output_rule)
    return Genotype(normal, reduction, op_set)


_MUTATE_RETRIES = 16


def mutate(g: Genotype, rng: random.Random) -> Genotype:
    """Change exactly one slot of one node in one cell.

    Every level of the choice (cell, op-vs-input, node, slot, replacement
    value) is uniform; the replacement is drawn from the legal set minus the
    current value, so a successful mutation always changes the hash. If the
    chosen slot has no legal alternative (single-member op set), the whole
    draw is retried a bounded number of times.
    """
    for _ in range(_MUTATE_RETRIES):
        cell_name = ("normal", "reduction")[rng.randrange(2)]
        mutate_op = rng.randrange(2) == 0
        cell = getattr(g, cell_name)
        node_idx = rng.randrange(cell.node_count)
        node = cell.nodes[node_idx]
        slot_b = rng.randrange(2) == 1

        if mutate_op:
            current = node.op_b if slot_b else node.op_a
            alternatives = [op for op in g.op_set.members if op is not current]
            if not alternatives:
                continue
            new_op = alternatives[rng.randrange(len(alternatives))]
            new_node = NodeSpec(
                node.input_a,
                node.input_b,
                node.op_a if slot_b else new_op,
                new_op if slot_b else node.op_b,
            )
        else:
            current = node.input_b if slot_b else node.input_a
            alternatives = [r for r in legal_inputs(node_idx) if r != current]
            if not alternatives:
                continue
            new_ref = alternatives[rng.randrange(len(alternatives))]
            new_node = NodeSpec(
                node.input_a if slot_b else new_ref,
                new_ref if slot_b else node.input_b,
                node.op_a,
                node.op_b,
            )

        nodes = list(cell.nodes)
        nodes[node_idx] = new_node
        new_cell = CellSpec(tuple(nodes), cell.output_rule)
        if cell_name == "normal":
            return Genotype(new_cell, g.reduction, g.op_set)
        return Genotype(g.normal, new_cell, g.op_set)

    raise NoAlternativeError(
        "no slot with a legal alternative found after %d attempts" % _MUTATE_RETRIES
    )


def slot_diff(a: Genotype, b: Genotype) -> int:
    """Number of node slots (input_a/input_b/op_a/op_b) that differ."""
    if a.node_count != b.node_count:
        raise GenotypeError("genotypes differ in node count")
    count = 0
    for cell_a, cell_b in ((a.normal, b.normal), (a.reduction, b.reduction)):
        for na, nb in zip(cell_a.nodes, cell_b.nodes):
            count += na.input_a != nb.input_a
            count += na.input_b != nb.input_b
            count += na.op_a != nb.op_a
            count += na.op_b != nb.op_b
    return count


SCHEMA_VERSION = 1


def _cell_to_obj(cell: CellSpec) -> dict:
    return {
        "output_rule": cell.output_rule.value,
        "nodes": [
            {
                "input_a": n.input_a.token(),
                "input_b": n.input_b.token(),
                "op_a": n.op_a.value,
                "op_b": n.op_b.value,
            }
            for n in cell.nodes
        ],
    }


def _build_document(g: Genotype) -> str:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "genotype",
        "node_count": g.node_count,
        "op_set": {"name": g.op_set.name, "members": [m.value for m in g.op_set.members]},
        "normal": _cell_to_obj(g.normal),
        "reduction": _cell_to_obj(g.reduction),
    }
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def encode(g: Genotype) -> str:
    """Canonical text document: fixed key order, fixed whitespace, so the
    document (and its hash) is stable for structurally equal genotypes.

    The document is built from the genotype's fields on first use and cached
    on the instance; later calls return the same string."""
    return g._document


def _parse_op(value, path: str) -> OperationKind:
    try:
        return OperationKind(value)
    except ValueError:
        raise ParseError("%s: unknown operation %r" % (path, value)) from None


# Canonical operation values and, for each of the first _TABLE_NODES node
# positions, the canonical tokens of the inputs that node may use. A node
# with any value outside these tables takes the per-field parse,
# _parse_node, which accepts or rejects it and names the path.
_TABLE_NODES = 16
_OPERATIONS = {op.value: op for op in OperationKind}
_LEGAL_TOKENS = [{ref.token(): ref for ref in legal_inputs(j)} for j in range(_TABLE_NODES)]


def _parse_node(raw, npath: str, j: int) -> NodeSpec:
    if not isinstance(raw, dict):
        raise ParseError("%s: expected an object" % npath)
    refs = {}
    for slot in ("input_a", "input_b"):
        if slot not in raw:
            raise ParseError("%s.%s: missing" % (npath, slot))
        ref = InputRef.from_token(str(raw[slot]), "%s.%s" % (npath, slot))
        if ref.kind == InputRef.NODE and ref.index >= j:
            raise ParseError(
                "%s.%s: dangling reference to node %d (must point strictly "
                "earlier than node %d)" % (npath, slot, ref.index, j)
            )
        refs[slot] = ref
    ops = {
        slot: _parse_op(raw.get(slot), "%s.%s" % (npath, slot))
        for slot in ("op_a", "op_b")
    }
    return NodeSpec(refs["input_a"], refs["input_b"], ops["op_a"], ops["op_b"])


def _parse_cell(obj, path: str) -> CellSpec:
    if not isinstance(obj, dict):
        raise ParseError("%s: expected an object" % path)
    try:
        rule = OutputRule(obj.get("output_rule"))
    except ValueError:
        raise ParseError(
            "%s.output_rule: unknown rule %r" % (path, obj.get("output_rule"))
        ) from None
    raw_nodes = obj.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ParseError("%s.nodes: expected a non-empty list" % path)
    nodes = []
    ops = _OPERATIONS
    for j, raw in enumerate(raw_nodes):
        legal = _LEGAL_TOKENS[j] if j < _TABLE_NODES else {}
        try:
            node = NodeSpec(
                legal[raw["input_a"]], legal[raw["input_b"]], ops[raw["op_a"]], ops[raw["op_b"]]
            )
        except (KeyError, TypeError):  # not a dict, a missing key, or a value off the tables
            node = _parse_node(raw, "%s.nodes[%d]" % (path, j), j)
        nodes.append(node)
    return CellSpec(tuple(nodes), rule)


def decode(doc: str) -> Genotype:
    """Inverse of :func:`encode`; raises ParseError naming the offending path.

    Canonical input tokens (``cell:0``, ``node:3``) and operation values are
    looked up in precomputed tables. Any other value (``node:01``, a number,
    an unknown operation) takes the per-field parse, which accepts or rejects
    it and words the error exactly as when every field took that parse."""
    try:
        obj = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ParseError("document: not valid JSON (%s)" % exc) from None
    if not isinstance(obj, dict):
        raise ParseError("document: expected a JSON object")
    if obj.get("kind") != "genotype":
        raise ParseError("kind: expected 'genotype', got %r" % obj.get("kind"))
    raw_set = obj.get("op_set")
    if not isinstance(raw_set, dict):
        raise ParseError("op_set: expected an object")
    name = raw_set.get("name")
    raw_members = raw_set.get("members")
    if not isinstance(name, str) or not isinstance(raw_members, list):
        raise ParseError("op_set: requires 'name' and 'members'")
    try:
        members = tuple(map(_OPERATIONS.__getitem__, raw_members))
    except (KeyError, TypeError):
        members = tuple(
            _parse_op(m, "op_set.members[%d]" % i) for i, m in enumerate(raw_members)
        )
    builtin = BUILTIN_OP_SETS.get(name)
    op_set = builtin if builtin is not None and builtin.members == members else OperationSet(name, members)
    normal = _parse_cell(obj.get("normal"), "normal")
    reduction = _parse_cell(obj.get("reduction"), "reduction")
    declared = obj.get("node_count")
    if declared != normal.node_count:
        raise ParseError(
            "node_count: declared %r but normal cell has %d nodes"
            % (declared, normal.node_count)
        )
    try:
        return Genotype(normal, reduction, op_set)
    except GenotypeError as exc:
        raise ParseError(str(exc)) from None


def decode_stored(model_id: str, doc) -> Genotype:
    """The genotype stored as ``doc`` under ``model_id``, which must be the
    SHA-256 of ``doc``. The instance keeps ``doc`` as its document and
    ``model_id`` as its hash, so neither is built again."""
    if not isinstance(doc, str):
        raise ParseError("genotype %s: expected a document string" % model_id)
    if hashlib.sha256(doc.encode("utf-8")).hexdigest() != model_id:
        raise ParseError("genotype %s: the id is not the SHA-256 of its document" % model_id)
    g = decode(doc)
    g.__dict__.update(_document=doc, content_hash=model_id)  # the cached_property slots
    return g
