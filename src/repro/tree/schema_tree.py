"""Schema tree nodes and the tree/DAG container.

Each :class:`SchemaTreeNode` wraps one schema element *in one context*:
a shared type referenced from two places expands to two tree nodes
wrapping clones of the same elements, which is exactly what lets Cupid
produce context-dependent mappings (Section 8.2).

Join-view augmentation (Section 8.3) later attaches existing column
nodes as children of new join-view nodes, turning the tree into a DAG:
nodes can have one *primary* parent (their containment context, used
for paths) plus any number of extra parents.

Interval encoding
-----------------

"Which leaves lie under node n" is the question TreeMatch asks on every
strong-link count and cinc/cdec adjustment. Instead of caching per-node
leaf tuples (a design whose manual invalidation discipline hid a whole
class of stale-cache bugs), :meth:`SchemaTree.reindex` stamps the
XPath-accelerator window encoding onto every node once per structural
version of the tree:

* ``pre`` — position in the deduplicated first-visit pre-order DFS
  from the root (the traversal that also defines the global leaf
  order, i.e. the :class:`~repro.structure.dense.LeafLayout` row and
  column order);
* ``post`` — position in :meth:`SchemaTree.postorder`;
* ``level`` — depth along primary parents (root = 0);
* ``subtree_size`` — number of *distinct* nodes in the subtree;
* ``leaf_lo``/``leaf_hi`` — the subtree's leaves as the contiguous
  window ``[leaf_lo, leaf_hi)`` of the global leaf order. Set for
  every *pure* node (no proper descendant has extra parents: the
  global DFS enters such a subtree exactly once, so its leaves are
  numbered consecutively by construction) and for the root (whose
  leaf set is the whole order by definition). Impure DAG nodes carry
  an ascending gather tuple ``_leaf_ids`` instead.

Required-optional flags reduce to one comparison per leaf: the
encoding records, per node, the maximum level of any optional node on
its primary root path (self included; -1 when none). For a pure node
``n`` — whose subtree paths are exactly the primary-parent chains — a
leaf ``x`` is required from ``n`` iff ``opt_level(x) <= n.level``:
ancestors of ``n`` sit at strictly smaller levels, descendants at
strictly larger ones, so the comparison asks precisely "is there an
optional node strictly below n on the path to x". Depth-pruned
frontiers (Section 8.4 "Pruning leaves") become shrunken-window scans:
walk ``pre`` positions inside the subtree window and skip a stand-in's
whole ``subtree_size`` span.

Mutation never invalidates by hand: :meth:`SchemaTreeNode.add_child`
and :meth:`add_shared_child` *unindex* the mutated ancestry (DAG-safe
walk over primary + extra parents), and every accessor falls back to a
fresh DFS when a node is unindexed. A missed :meth:`SchemaTree.reindex`
therefore costs speed, never correctness — the failure mode the old
``invalidate_leaf_caches`` machinery could not offer. Nodes outside the
mutated ancestry keep their stamp: their leaf sets are unchanged and
the window still resolves against the encoding it was minted with.

``REPRO_INTERVAL_ORACLE=1`` makes every reindex cross-check itself
against independently recomputed descendant sets
(:func:`verify_interval_encoding`); the fuzz parity suite and
repository ``verify`` run the same oracle unconditionally.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import SchemaError
from repro.model.datatypes import DataType
from repro.model.element import SchemaElement
from repro.model.schema import Schema

_node_counter = itertools.count(1)


class _TreeEncoding:
    """One :meth:`SchemaTree.reindex` pass's tree-wide tables.

    Shared by every node stamped in that pass; a node's ``_enc``
    reference doubles as its validity flag (mutation resets it to
    None). ``leaves`` is the global leaf order; ``leaf_opt`` aligns
    with it; ``pre_nodes`` is the full pre-order node sequence with
    ``node_opt`` aligned to it (max optional level on the primary
    root path, -1 when the path has no optional node); ``post_nodes``
    is :meth:`SchemaTree.postorder`'s order (``post`` indexes it).
    """

    __slots__ = ("leaves", "leaf_opt", "pre_nodes", "node_opt", "post_nodes")

    def __init__(
        self,
        leaves: Tuple["SchemaTreeNode", ...],
        leaf_opt: List[int],
        pre_nodes: Tuple["SchemaTreeNode", ...],
        node_opt: List[int],
        post_nodes: Tuple["SchemaTreeNode", ...],
    ) -> None:
        self.leaves = leaves
        self.leaf_opt = leaf_opt
        self.pre_nodes = pre_nodes
        self.node_opt = node_opt
        self.post_nodes = post_nodes


class SchemaTreeNode:
    """One element occurrence in the expanded schema tree."""

    __slots__ = (
        "element",
        "parent",
        "extra_parents",
        "children",
        "node_id",
        "is_join_view",
        "pre",
        "post",
        "level",
        "subtree_size",
        "pure",
        "leaf_lo",
        "leaf_hi",
        "_leaf_ids",
        "_enc",
    )

    def __init__(
        self,
        element: SchemaElement,
        parent: Optional["SchemaTreeNode"] = None,
        is_join_view: bool = False,
    ) -> None:
        self.element = element
        self.parent = parent
        self.extra_parents: List["SchemaTreeNode"] = []
        self.children: List["SchemaTreeNode"] = []
        self.node_id: int = next(_node_counter)
        self.is_join_view = is_join_view
        # Interval encoding (see module docstring); -1 / None until the
        # owning SchemaTree's reindex() stamps this node.
        self.pre: int = -1
        self.post: int = -1
        self.level: int = -1
        self.subtree_size: int = 0
        self.pure: bool = False
        self.leaf_lo: int = -1
        self.leaf_hi: int = -1
        self._leaf_ids: Optional[Tuple[int, ...]] = None
        self._enc: Optional[_TreeEncoding] = None

    # -- element passthroughs ------------------------------------------------

    @property
    def name(self) -> str:
        return self.element.name

    @property
    def data_type(self) -> Optional[DataType]:
        return self.element.data_type

    @property
    def optional(self) -> bool:
        return self.element.optional

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- structure -----------------------------------------------------------

    def add_child(self, child: "SchemaTreeNode") -> None:
        """Attach ``child`` with this node as primary parent."""
        if child.parent is not None:
            raise ValueError(
                f"{child!r} already has a primary parent {child.parent!r}"
            )
        child.parent = self
        self.children.append(child)
        self._unindex_ancestry()

    def add_shared_child(self, child: "SchemaTreeNode") -> None:
        """Attach an *existing* node as an extra child (join views)."""
        self.children.append(child)
        child.extra_parents.append(self)
        self._unindex_ancestry()

    def _unindex_ancestry(self) -> None:
        """Drop the interval stamp here and on every ancestor (all
        parents — the mutation changes their subtrees too). Unindexed
        nodes answer through the DFS fallbacks until the next
        :meth:`SchemaTree.reindex`.

        The walk stops at a node that is already unindexed, because
        every ancestor of an unindexed node is unindexed too:

        * :meth:`SchemaTree.reindex` stamps exactly the nodes reachable
          from the root, and a stamped node's descendants are reachable
          (stamped) as well;
        * a node gains ancestors only through a new link, and both
          linking methods unindex the new parent, whose ancestors are
          unindexed by this walk — completely, by the same argument;
        * unindexing a node together with its ancestors keeps it so.

        So building a tree that was never indexed costs one check per
        link, and a mutation of an indexed tree (join views) unindexes
        each stamped ancestor once. The stop also makes the walk safe
        on DAGs without a visited set.
        """
        stack: List[SchemaTreeNode] = [self]
        while stack:
            node = stack.pop()
            if node._enc is None:
                continue
            node._enc = None
            node.pre = -1
            if node.parent is not None:
                stack.append(node.parent)
            stack.extend(node.extra_parents)

    def path(self) -> Tuple[str, ...]:
        """Names from the root to this node along primary parents."""
        parts: List[str] = []
        node: Optional[SchemaTreeNode] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return tuple(reversed(parts))

    def path_string(self) -> str:
        return ".".join(self.path())

    def leaves(self) -> Tuple["SchemaTreeNode", ...]:
        """Leaf nodes of the subtree rooted here (deduped).

        "leaves(s) = set of leaves in the subtree rooted at s"
        (Section 6). Indexed nodes answer from the interval encoding:
        a window slice of the global leaf order (for the root, the
        order itself — also the LeafLayout row/column order), or the
        gather tuple for impure DAG nodes (ascending global order).
        Unindexed nodes fall back to a fresh DFS in discovery order.
        """
        enc = self._enc
        if enc is not None:
            if self._leaf_ids is not None:
                all_leaves = enc.leaves
                return tuple(all_leaves[i] for i in self._leaf_ids)
            if self.leaf_lo == 0 and self.leaf_hi == len(enc.leaves):
                return enc.leaves
            return enc.leaves[self.leaf_lo:self.leaf_hi]
        if not self.children:
            return (self,)
        collected: List[SchemaTreeNode] = []
        stack: List[SchemaTreeNode] = [self]
        visited: Set[int] = set()
        while stack:
            node = stack.pop()
            if node.node_id in visited:
                continue
            visited.add(node.node_id)
            if not node.children:
                collected.append(node)
            else:
                stack.extend(reversed(node.children))
        return tuple(collected)

    def leaf_count(self) -> int:
        enc = self._enc
        if enc is not None:
            if self._leaf_ids is not None:
                return len(self._leaf_ids)
            return self.leaf_hi - self.leaf_lo
        return len(self.leaves())

    def leaves_with_required_flag(self) -> Dict["SchemaTreeNode", bool]:
        """Map each leaf of this subtree to a *required* flag.

        Section 8.4 ("Optionality"): "A leaf is optional if it has at
        least one optional node on each path from n to the leaf."
        Equivalently, a leaf is required iff some path from here to it
        traverses no optional node (the starting node's own optionality
        does not count — it is the context, not the path).

        For pure indexed nodes this is one comparison per window
        position (``opt_level(leaf) <= self.level``, see the module
        docstring); impure DAG nodes — where a leaf may be reachable
        along several paths and the least-optional one wins — and
        unindexed nodes use the DFS. Callers must treat the returned
        dict as read-only; TreeMatch memoizes it per pass.
        """
        enc = self._enc
        if enc is not None and self.pure and self._leaf_ids is None:
            all_leaves = enc.leaves
            leaf_opt = enc.leaf_opt
            level = self.level
            return {
                all_leaves[i]: leaf_opt[i] <= level
                for i in range(self.leaf_lo, self.leaf_hi)
            }
        return self._required_flags_dfs()

    def _required_flags_dfs(self) -> Dict["SchemaTreeNode", bool]:
        """Reference required-flag computation (any node, any state)."""
        required: Dict[SchemaTreeNode, bool] = {}
        stack: List[Tuple[SchemaTreeNode, bool]] = [(self, False)]
        # Track the best (least-optional) way each node was reached so a
        # node revisited via a required path upgrades its leaves.
        best: Dict[int, bool] = {}
        while stack:
            node, saw_optional = stack.pop()
            previous = best.get(node.node_id)
            if previous is not None and previous <= saw_optional:
                continue  # already reached at least as cleanly
            best[node.node_id] = saw_optional
            if not node.children and node is not self:
                is_required = not saw_optional
                required[node] = required.get(node, False) or is_required
                continue
            if not node.children and node is self:
                required[node] = not saw_optional
                continue
            for child in node.children:
                stack.append((child, saw_optional or child.optional))
        return required

    def pruned_frontier(
        self, depth_limit: int
    ) -> Dict["SchemaTreeNode", bool]:
        """Effective leaves cut at ``depth_limit`` (Section 8.4
        "Pruning leaves"): leaves shallower than the limit plus the
        nodes at exactly that depth standing in for their subtrees,
        each with its required flag relative to this node.

        Pure indexed nodes scan their pre-order window and *shrink*
        it around stand-ins (skip ``subtree_size`` positions — the
        DMR-XPath shrunken-window trick); everything else uses the
        reference DFS.
        """
        if depth_limit <= 0:
            return self.leaves_with_required_flag()
        enc = self._enc
        if enc is None or not self.pure or self._leaf_ids is not None:
            return self._frontier_dfs(depth_limit)
        pre_nodes = enc.pre_nodes
        node_opt = enc.node_opt
        base_level = self.level
        cutoff = base_level + depth_limit
        frontier: Dict[SchemaTreeNode, bool] = {}
        i = self.pre
        end = self.pre + self.subtree_size
        while i < end:
            node = pre_nodes[i]
            if node.level >= cutoff:
                # Stand-in for its whole (pure) subtree: include it and
                # jump the window past its descendants.
                frontier[node] = node_opt[i] <= base_level
                i += node.subtree_size
                continue
            if not node.children:
                frontier[node] = node_opt[i] <= base_level
            i += 1
        return frontier

    def _frontier_dfs(
        self, depth_limit: int
    ) -> Dict["SchemaTreeNode", bool]:
        """Reference depth-pruned frontier (any node, any state)."""
        frontier: Dict[SchemaTreeNode, bool] = {}
        stack: List[Tuple[SchemaTreeNode, int, bool]] = [(self, 0, False)]
        while stack:
            current, depth, saw_optional = stack.pop()
            if not current.children or depth == depth_limit:
                required = not saw_optional
                frontier[current] = frontier.get(current, False) or required
                continue
            for child in current.children:
                stack.append(
                    (child, depth + 1, saw_optional or child.optional)
                )
        return frontier

    def iter_subtree(self) -> Iterator["SchemaTreeNode"]:
        """All nodes of this subtree (pre-order, deduped for DAGs)."""
        visited: Set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.node_id in visited:
                continue
            visited.add(node.node_id)
            yield node
            stack.extend(reversed(node.children))

    def subtree_depth(self) -> int:
        """Height of the subtree rooted here (leaf = 0)."""
        if not self.children:
            return 0
        return 1 + max(child.subtree_depth() for child in self.children)

    def __repr__(self) -> str:
        marker = " (join)" if self.is_join_view else ""
        return f"<TreeNode {self.path_string()}{marker} n{self.node_id}>"


class SchemaTree:
    """The expanded schema tree (or DAG, after join-view augmentation)."""

    def __init__(self, schema: Schema, root: SchemaTreeNode) -> None:
        self.schema = schema
        self.root = root
        self.encoding: Optional[_TreeEncoding] = None
        self.reindex()

    def nodes(self) -> List[SchemaTreeNode]:
        """All nodes reachable from the root, pre-order, deduped."""
        return list(self.root.iter_subtree())

    def postorder(self) -> List[SchemaTreeNode]:
        """Deterministic inverse-topological (post-order) enumeration.

        For plain trees this is the unique post-order the paper uses.
        After join-view augmentation the structure is a DAG and
        post-order is no longer unique (the non-Church-Rosser caveat of
        Section 8.3); we fix determinism by visiting children in
        insertion order, which — because join views are appended after
        the ordinary children — compares join views after the tables
        they join, the ordering the paper suggests.

        While the root's interval encoding is current this is the order
        :meth:`reindex` recorded (any link added to the tree unindexes
        the root); otherwise a fresh DFS.
        """
        enc = self.root._enc
        if enc is not None:
            return list(enc.post_nodes)
        return self._postorder_dfs()

    def _postorder_dfs(self) -> List[SchemaTreeNode]:
        order: List[SchemaTreeNode] = []
        visited: Set[int] = set()
        # Iterative DFS with explicit phase to get true post-order.
        stack: List[Tuple[SchemaTreeNode, bool]] = [(self.root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node.node_id in visited:
                continue
            visited.add(node.node_id)
            stack.append((node, True))
            for child in reversed(node.children):
                if child.node_id not in visited:
                    stack.append((child, False))
        return order

    def leaves(self) -> List[SchemaTreeNode]:
        return list(self.root.leaves())

    def node_for_path(self, *names: str) -> SchemaTreeNode:
        """Resolve a node by its name path below the root."""
        node = self.root
        for step in names:
            matches = [c for c in node.children if c.name == step]
            if len(matches) != 1:
                raise KeyError(
                    f"path step {step!r} under {node.path_string()!r} matched "
                    f"{len(matches)} children"
                )
            node = matches[0]
        return node

    def reindex(self) -> None:
        """(Re)compute the interval encoding for the current structure.

        Called at construction and after structural mutation batches
        (:func:`repro.tree.refint.augment_with_join_views`). Safe to
        skip after a mutation — unindexed nodes fall back to DFS — and
        safe to call repeatedly. ``REPRO_INTERVAL_ORACLE=1`` makes each
        pass verify itself against independent recomputation.
        """
        root = self.root
        # Pass 1 — global first-visit pre-order: assigns ``pre``,
        # collects the leaf order (this exact traversal is what
        # LeafLayout rows/columns are built from), resets levels.
        pre_nodes: List[SchemaTreeNode] = []
        leaves: List[SchemaTreeNode] = []
        visited: Set[int] = set()
        stack: List[SchemaTreeNode] = [root]
        while stack:
            node = stack.pop()
            if node.node_id in visited:
                continue
            visited.add(node.node_id)
            node.pre = len(pre_nodes)
            node.level = -1
            pre_nodes.append(node)
            if not node.children:
                node.leaf_lo = len(leaves)
                node.leaf_hi = len(leaves) + 1
                leaves.append(node)
            else:
                stack.extend(reversed(node.children))

        # Pass 2 — levels and optional-depths along primary chains
        # (chain-walk with memoization; construction order of the DAG
        # puts no useful bound on parent-before-child in pre-order).
        node_opt = [-1] * len(pre_nodes)
        root.level = 0
        node_opt[root.pre] = 0 if root.optional else -1
        for node in pre_nodes:
            if node.level >= 0:
                continue
            chain = [node]
            walker = node.parent
            while (
                walker is not None
                and walker.node_id in visited
                and walker.level < 0
            ):
                chain.append(walker)
                walker = walker.parent
            if walker is None or walker.node_id not in visited:
                base_level = -1  # detached chain head acts as a root
                base_opt = -1
            else:
                base_level = walker.level
                base_opt = node_opt[walker.pre]
            for link in reversed(chain):
                base_level += 1
                link.level = base_level
                if link.optional:
                    base_opt = base_level
                node_opt[link.pre] = base_opt
        leaf_opt = [node_opt[leaf.pre] for leaf in leaves]

        # Pass 3 — bottom-up over the post-order: ``post`` ids, purity,
        # subtree sizes, and leaf windows. A node is *pure* when no
        # proper descendant has extra parents (then child windows are
        # disjoint and adjacent, so the window is the children's union
        # and sizes simply add). Impure DAG nodes get an explicit
        # distinct-leaf gather tuple in ascending global order.
        post_nodes = self._postorder_dfs()
        for post, node in enumerate(post_nodes):
            node.post = post
            children = node.children
            if not children:
                node.pure = True
                node.subtree_size = 1
                node._leaf_ids = None
                continue  # leaf window assigned in pass 1
            pure = True
            seen_children: Set[int] = set()
            for child in children:
                if child.node_id in seen_children:
                    pure = False  # duplicate edge: leaf sets overlap
                    continue
                seen_children.add(child.node_id)
                if child.extra_parents or not child.pure:
                    pure = False
            if pure:
                lo = min(child.leaf_lo for child in children)
                hi = max(child.leaf_hi for child in children)
                total = sum(
                    child.leaf_hi - child.leaf_lo for child in children
                )
                if hi - lo != total:
                    pure = False  # windows not adjacent: demote
                else:
                    node.pure = True
                    node.subtree_size = 1 + sum(
                        child.subtree_size for child in children
                    )
                    node.leaf_lo = lo
                    node.leaf_hi = hi
                    node._leaf_ids = None
            if not pure:
                node.pure = False
                count = 0
                gather: List[int] = []
                seen: Set[int] = set()
                walk: List[SchemaTreeNode] = [node]
                while walk:
                    current = walk.pop()
                    if current.node_id in seen:
                        continue
                    seen.add(current.node_id)
                    count += 1
                    if not current.children:
                        gather.append(current.leaf_lo)
                    else:
                        walk.extend(current.children)
                gather.sort()
                node.subtree_size = count
                node._leaf_ids = tuple(gather)
                node.leaf_lo = -1
                node.leaf_hi = -1

        # The root's leaf set IS the global order, pure or not: give it
        # the full window so LeafLayout construction and per-root block
        # addressing stay O(1) on DAGs too. (Purity still gates the
        # required-flag arithmetic, which needs unique paths.)
        root.leaf_lo = 0
        root.leaf_hi = len(leaves)
        root._leaf_ids = None

        enc = _TreeEncoding(
            tuple(leaves), leaf_opt, tuple(pre_nodes), node_opt,
            tuple(post_nodes),
        )
        for node in pre_nodes:
            node._enc = enc
        self.encoding = enc

        if os.environ.get("REPRO_INTERVAL_ORACLE"):
            verify_interval_encoding(self)

    def __len__(self) -> int:
        return len(self.nodes())

    def __repr__(self) -> str:
        return f"<SchemaTree of {self.schema.name!r}: {len(self)} nodes>"


# ----------------------------------------------------------------------
# Migration oracle
# ----------------------------------------------------------------------

def _oracle_leaves(node: SchemaTreeNode) -> List[SchemaTreeNode]:
    """Independent dedup-DFS leaf collection (discovery order)."""
    collected: List[SchemaTreeNode] = []
    seen: Set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.node_id in seen:
            continue
        seen.add(current.node_id)
        if not current.children:
            collected.append(current)
        else:
            stack.extend(reversed(current.children))
    return collected


def _oracle_subtree(node: SchemaTreeNode) -> Set[int]:
    """Independent distinct-descendant id set (self included)."""
    seen: Set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.node_id in seen:
            continue
        seen.add(current.node_id)
        stack.extend(current.children)
    return seen


def verify_interval_encoding(tree: SchemaTree) -> None:
    """Cross-check the interval encoding against independent DFS.

    For every node: leaf sets, leaf counts, required flags, pruned
    frontiers (depths 1-3), subtree sizes, levels, and the purity
    claim are recomputed from the raw parent/child structure and
    compared with what the encoded accessors answer. Raises
    :class:`~repro.exceptions.SchemaError` on the first divergence.

    This is the migration oracle the fuzz parity suite and
    ``SchemaRepository.verify`` run on every generated tree/DAG, and
    what ``REPRO_INTERVAL_ORACLE=1`` arms on every reindex.
    """

    def fail(node: SchemaTreeNode, what: str) -> None:
        raise SchemaError(
            f"interval encoding mismatch at {node.path_string()!r} "
            f"(n{node.node_id}): {what}"
        )

    enc = tree.encoding
    root = tree.root
    if tree.postorder() != tree._postorder_dfs():
        fail(root, "postorder() diverges from a fresh post-order DFS")
    by_id = {node.node_id: node for node in tree.nodes()}
    for node in by_id.values():
        expected_leaves = _oracle_leaves(node)
        got_leaves = node.leaves()
        if len(got_leaves) != len(set(got_leaves)):
            fail(node, "duplicate entries in leaves()")
        if set(got_leaves) != set(expected_leaves):
            fail(node, "leaves() set diverges from descendant DFS")
        if node.leaf_count() != len(expected_leaves):
            fail(node, "leaf_count() diverges from descendant DFS")
        if node is root and list(got_leaves) != expected_leaves:
            fail(node, "root leaves() must preserve global DFS order")
        if (
            node._enc is not None
            and node.pure
            and list(got_leaves) != expected_leaves
        ):
            # A pure window is the DFS order by construction.
            fail(node, "pure-window leaves() diverge from DFS order")

        if node.leaves_with_required_flag() != node._required_flags_dfs():
            fail(node, "required flags diverge from reference DFS")
        for depth in (1, 2, 3):
            if node.pruned_frontier(depth) != node._frontier_dfs(depth):
                fail(node, f"depth-{depth} frontier diverges from DFS")

        if node._enc is None:
            continue  # unindexed: DFS fallbacks already verified above
        if node._enc is not enc:
            fail(node, "stamped with a stale encoding")
        subtree = _oracle_subtree(node)
        if node.subtree_size != len(subtree):
            fail(node, "subtree_size diverges from distinct DFS count")
        if enc.pre_nodes[node.pre] is not node:
            fail(node, "pre index does not resolve back to the node")
        depth = 0
        walker = node
        while walker.parent is not None:
            depth += 1
            walker = walker.parent
        if node.level != depth:
            fail(node, "level diverges from primary-chain depth")
        if node.pure and any(
            by_id[other_id].extra_parents
            for other_id in subtree
            if other_id != node.node_id
        ):
            fail(node, "pure node has extra-parented descendant")
