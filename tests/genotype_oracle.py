"""A stand-alone copy of the per-field genotype decoder, the algorithm
``econas.genotype.decode`` also runs: every field goes through
``InputRef.from_token`` and ``OperationKind``, with its path formatted
first. It is the reference ``test_decode_equals_the_per_field_oracle``
compares ``decode`` against; that test requires the same ``Genotype``, or
the same exception and message, from both.
"""

import json

from econas.genotype import (
    BUILTIN_OP_SETS,
    CellSpec,
    Genotype,
    GenotypeError,
    InputRef,
    NodeSpec,
    OperationKind,
    OperationSet,
    OutputRule,
    ParseError,
)


def _parse_op(value, path: str) -> OperationKind:
    try:
        return OperationKind(value)
    except ValueError:
        raise ParseError("%s: unknown operation %r" % (path, value)) from None


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
    for j, raw in enumerate(raw_nodes):
        npath = "%s.nodes[%d]" % (path, j)
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
        nodes.append(NodeSpec(refs["input_a"], refs["input_b"], ops["op_a"], ops["op_b"]))
    return CellSpec(tuple(nodes), rule)


def decode(doc: str) -> Genotype:
    """Inverse of :func:`encode`; raises ParseError naming the offending path."""
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

