"""Walk the autodiff graph behind a tensor, for tests that inspect it."""


def graph_nodes(tensor):
    """The graph nodes reachable from `tensor`'s node, its own first: op
    nodes and the leaves (tensors) that take a gradient. The walk follows
    each node's parents as they are now, so after a backward it stops at
    the nodes that backward freed."""
    seen, stack, nodes = set(), [tensor.node], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(p for p in node._prev if p is not None)
    return nodes


def run_backward(tensor, grad):
    """Run the backward closure of `tensor`'s node alone, as the sweep does:
    with the output gradient and the node's parents."""
    node = tensor.node
    node._backward(grad, *node._prev)
