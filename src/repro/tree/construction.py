"""Schema-tree construction (Figure 4 of the paper).

Pre-order traversal of the schema graph that materializes one tree node
per containment path and performs *type substitution*: when an element
is reached through an IsDerivedFrom relationship, no node is created
for the type itself — its members are expanded in place under the
deriving element. Elements tagged not-instantiated (keys, RefInt
scaffolding) are skipped.

Cycles of containment/IsDerivedFrom (recursive types) make construction
fail with :class:`CyclicSchemaError`, matching the paper's explicit
deferral of cyclic schemas.
"""

from __future__ import annotations

from typing import Set

from repro.exceptions import CyclicSchemaError
from repro.model.element import SchemaElement
from repro.model.schema import Schema
from repro.tree.schema_tree import SchemaTree, SchemaTreeNode


def construct_schema_tree(schema: Schema) -> SchemaTree:
    """Expand ``schema`` into a schema tree (Figure 4).

    Returns a :class:`SchemaTree` whose nodes wrap the graph's
    elements; a shared type used in *k* contexts yields *k* node
    subtrees, all wrapping the same underlying elements (so linguistic
    similarity is shared while structural similarity is per-context).
    """
    root_node = SchemaTreeNode(schema.root)
    _construct(schema, schema.root, root_node, via_containment=True,
               in_progress=set(), is_root=True)
    return SchemaTree(schema, root_node)


def _construct(
    schema: Schema,
    current_se: SchemaElement,
    current_stn: SchemaTreeNode,
    via_containment: bool,
    in_progress: Set[str],
    is_root: bool = False,
) -> None:
    """Recursive helper mirroring Figure 4's construct_schema_tree.

    ``current_stn`` is the tree node the expansion of ``current_se``'s
    members should attach to. When ``current_se`` was reached through
    containment (and is instantiated), a fresh node for it was already
    created by the caller; when reached through IsDerivedFrom, members
    attach directly to the deriving element's node (type substitution).
    """
    if current_se.element_id in in_progress:
        raise CyclicSchemaError(
            f"recursive type definition through {current_se.name!r} in "
            f"schema {schema.name!r}; cyclic schemas are not supported "
            "(paper Section 8.2)"
        )
    in_progress.add(current_se.element_id)
    try:
        for target in schema.contained_children(current_se):
            if target.not_instantiated:
                # Keys, shared-type declarations, RefInt scaffolding:
                # ignored during construction.
                continue
            child_node = SchemaTreeNode(target)
            current_stn.add_child(child_node)
            _construct(schema, target, child_node,
                       via_containment=True, in_progress=in_progress)
        for base in schema.derived_bases(current_se):
            # IsDerivedFrom: substitute the type's members in place —
            # no node for the type element itself.
            _construct(schema, base, current_stn,
                       via_containment=False, in_progress=in_progress)
    finally:
        in_progress.discard(current_se.element_id)
