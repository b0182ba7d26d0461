"""Binary tree node with parent back-links.

Links are maintained pairwise: ``set_left``/``set_right`` attach a free node
and then ask it to adopt the new parent through a qualified call, ``prune_*``
clear the forward link first and then ask the former child to detach itself.
``set_parent`` is the child's half of that handshake: it only accepts a
non-void parent that already links the receiver.

The invariant clauses cross-check both link directions, each declared to
depend on the reference attribute it dereferences, so a clause stays
unchecked while the object on its other end is mid-update.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import ARG0, InvariantClause, ModelQuery, item_param, pred, ref_param

from mbcheck.containers._shared import ClassDecl, RoutineDecl, qcall

CLASS_NAME = "binary_node"


class BinaryNode:

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.item = 0
        self.parent = None
        self.left = None
        self.right = None

    # commands

    def set_item(self, v):
        self.item = v

    def set_left(self, n):
        self.left = n
        qcall(n, "set_parent", self)

    def set_right(self, n):
        self.right = n
        qcall(n, "set_parent", self)

    def prune_left(self):
        old = self.left
        if "PL-1" not in self._bugs:
            self.left = None
        if old is not None:
            qcall(old, "set_parent", None)

    def prune_right(self):
        old = self.right
        self.right = None
        if old is not None:
            qcall(old, "set_parent", None)

    def set_parent(self, p):
        self.parent = p

    # queries

    def node_item(self):
        return self.item

    def is_leaf(self):
        return self.left is None and self.right is None


def _oid(n):
    if n is None:
        return V.VOID_ID
    return V.object_id(n._checked.token)


def _links_sound(o):
    """Both directions of every adjacent link agree. Ghost check for the
    harness: a legal one-sided detach leaves neighbors failing this."""
    if o.left is not None and o.left.parent is not o:
        return False
    if o.right is not None and o.right.parent is not o:
        return False
    p = o.parent
    if p is not None and p.left is not o and p.right is not o:
        return False
    return True


def _subtree_size(o):
    seen = set()
    stack = [o]
    n = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        n += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return n


# the attach handshake: a non-void parent must already link the receiver
_PRE_ATTACHED = pred(
    "attached_by_caller",
    lambda ctx: ctx.arg_is_void(0)
    or ctx.arg(0).left is ctx.obj
    or ctx.arg(0).right is ctx.obj,
)

_PRE_CHILD = [
    pred("child_given", lambda ctx: not ctx.arg_is_void(0)),
    pred("child_not_current", lambda ctx: not ctx.arg_is_target(0)),
    pred("child_free", lambda ctx: ctx.arg(0).parent is None),
]


def _no_cycle(ctx):
    # the argument must not sit on the receiver's ancestor chain
    node = ctx.obj
    hops = 0
    while node is not None and hops < 1000:
        if node is ctx.arg(0):
            return False
        node = node.parent
        hops += 1
    return True


_PRE_NO_CYCLE = pred("no_cycle", _no_cycle)


def _detached(side):
    def fn(ctx):
        child = ctx.co.engine.object_by_token(V.oid_token(ctx.old(side))).concrete
        return child.parent is None

    return pred("former_child_detached", fn)


DECL = ClassDecl(
    CLASS_NAME,
    BinaryNode,
    [
        RoutineDecl(BinaryNode.set_item, [item_param()]),
        RoutineDecl(
            BinaryNode.set_left,
            [ref_param()],
            pre=[
                pred("no_left_yet", lambda ctx: ctx.old("left") == V.VOID_ID),
                *_PRE_CHILD,
            ],
        ),
        RoutineDecl(
            BinaryNode.set_right,
            [ref_param()],
            pre=[
                pred("no_right_yet", lambda ctx: ctx.old("right") == V.VOID_ID),
                *_PRE_CHILD,
            ],
        ),
        RoutineDecl(
            BinaryNode.prune_left,
            pre=[pred("has_left", lambda ctx: ctx.old("left") != V.VOID_ID)],
        ),
        RoutineDecl(
            BinaryNode.prune_right,
            pre=[pred("has_right", lambda ctx: ctx.old("right") != V.VOID_ID)],
        ),
        RoutineDecl(BinaryNode.set_parent, [ref_param()], pre=[_PRE_ATTACHED]),
        RoutineDecl(BinaryNode.node_item, returns_value=True),
        RoutineDecl(BinaryNode.is_leaf, returns_value=True),
    ],
    size_of=_subtree_size,
    consistency_probe=_links_sound,
)


def build(level, bugs=frozenset()):
    # both levels model the links and share the postconditions; the strong
    # level adds the link invariants, the acyclicity guard and the frames
    model = [
        ModelQuery("item", lambda o: V.item(o.item)),
        ModelQuery("parent", lambda o: _oid(o.parent)),
        ModelQuery("left", lambda o: _oid(o.left)),
        ModelQuery("right", lambda o: _oid(o.right)),
    ]
    adopted = pred("adopted", lambda ctx: ctx.now("parent", ARG0) == ctx.self_id())
    post = {
        "set_item": [
            pred("item_set", lambda ctx: ctx.now("item") == V.item(ctx.arg(0)))
        ],
        "set_left": [
            pred("linked_left", lambda ctx: ctx.now("left") == ctx.arg_id(0)),
            adopted,
        ],
        "set_right": [
            pred("linked_right", lambda ctx: ctx.now("right") == ctx.arg_id(0)),
            adopted,
        ],
        "prune_left": [
            pred("left_void", lambda ctx: ctx.now("left") == V.VOID_ID),
            _detached("left"),
        ],
        "prune_right": [
            pred("right_void", lambda ctx: ctx.now("right") == V.VOID_ID),
            _detached("right"),
        ],
        "set_parent": [
            pred(
                "parent_set",
                lambda ctx: ctx.now("parent")
                == (V.VOID_ID if ctx.arg_is_void(0) else ctx.arg_id(0)),
            )
        ],
        "node_item": [
            pred("reports_item", lambda ctx: V.item(ctx.result) == ctx.now("item"))
        ],
        "is_leaf": [
            pred(
                "reports_leaf",
                lambda ctx: ctx.result
                == (ctx.now("left") == V.VOID_ID and ctx.now("right") == V.VOID_ID),
            )
        ],
    }
    if level != "strong":
        return DECL.spec(level, bugs, model=model, post=post)
    return DECL.spec(
        level,
        bugs,
        model=model,
        post=post,
        invariants=[
            InvariantClause(
                "child_side",
                lambda m, o: o.parent is None
                or o.parent.left is o
                or o.parent.right is o,
                depend=("parent",),
                kind="representation",
            ),
            InvariantClause(
                "parent_side_left",
                lambda m, o: o.left is None or o.left.parent is o,
                depend=("left",),
                kind="representation",
            ),
            InvariantClause(
                "parent_side_right",
                lambda m, o: o.right is None or o.right.parent is o,
                depend=("right",),
                kind="representation",
            ),
        ],
        pre={"set_left": [_PRE_NO_CYCLE], "set_right": [_PRE_NO_CYCLE]},
        modify={
            "set_item": ("item",),
            "set_left": (("target", "left"), (ARG0, "parent")),
            "set_right": (("target", "right"), (ARG0, "parent")),
            "prune_left": (("target", "left"),),
            "prune_right": (("target", "right"),),
            "set_parent": (("target", "parent"),),
        },
    )
