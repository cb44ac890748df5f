"""Graphviz DOT export for nets and marking graphs.

Output is plain DOT text with nodes emitted in declaration order, so the
same net or graph always serializes to the same bytes.
"""

from __future__ import annotations

MAX_GRAPH_STATES = 10_000


class GraphTooLarge(ValueError):
    """Reachability graph exceeds the export limit."""


def _q(name):
    # embedded newlines become DOT line breaks
    s = (str(name).replace("\\", "\\\\").replace('"', '\\"')
         .replace("\n", "\\n"))
    return '"%s"' % s


def _interval_label(efd, lfd):
    hi = "inf" if lfd is None else str(lfd)
    return "[%d,%s]" % (efd, hi)


def net_dot(net, name="net") -> str:
    """Places as ellipses (with token counts), transitions as boxes."""
    lines = ["digraph %s {" % _q(name)]
    lines.append("  rankdir=LR;")
    lines.append("  node [fontsize=10];")
    for p in net.places:
        tokens = net.initial.get(p, 0)
        label = p if not tokens else "%s\n%d" % (p, tokens)
        lines.append("  %s [shape=ellipse, label=%s];" % (_q(p), _q(label)))
    for t in net.transitions:
        efd, lfd = net.interval[t]
        if efd == 0 and lfd is None:
            label = t
        else:
            label = "%s\n%s" % (t, _interval_label(efd, lfd))
        lines.append("  %s [shape=box, label=%s];" % (_q(t), _q(label)))
    for t in net.transitions:
        for p, w in sorted(net.pre[t].items()):
            suffix = " [label=%s]" % _q(str(w)) if w > 1 else ""
            lines.append("  %s -> %s%s;" % (_q(p), _q(t), suffix))
        for p, w in sorted(net.post[t].items()):
            suffix = " [label=%s]" % _q(str(w)) if w > 1 else ""
            lines.append("  %s -> %s%s;" % (_q(t), _q(p), suffix))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _marking_label(marking):
    entries = ["%s=%s" % (p, n) for p, n in sorted(marking.items()) if n]
    return "\n".join(entries) or "(empty)"


def reach_dot(graph, name="reach") -> str:
    """The ``MarkingGraph`` of ``explore_markings`` as DOT, edges labelled
    by transition; refuses graphs above ``MAX_GRAPH_STATES`` states."""
    n = graph.n_states
    if n > MAX_GRAPH_STATES:
        raise GraphTooLarge("%d states exceeds the %d-state export limit"
                            % (n, MAX_GRAPH_STATES))
    lines = ["digraph %s {" % _q(name)]
    lines.append("  node [shape=box, fontsize=9];")
    dead = set(graph.dead_ids())
    for i in range(n):
        label = "s%d\n%s" % (i, _marking_label(graph.marking(i)))
        extra = ", style=filled, fillcolor=lightgray" if i in dead else ""
        lines.append("  s%d [label=%s%s];" % (i, _q(label), extra))
    # the graph stores no edges: fire each enabled transition again
    net, ids = graph.net, {graph.counts(i): i for i in range(n)}
    for i in range(n):
        m = graph.marking(i)
        for t in net.enabled(m):
            j = ids.get(net.marking_tuple(net.fire_marking(m, t)))
            if j is not None:
                lines.append("  s%d -> s%d [label=%s];" % (i, j, _q(t)))
    lines.append("}")
    return "\n".join(lines) + "\n"
