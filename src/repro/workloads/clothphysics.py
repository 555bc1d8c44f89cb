"""Cloth soft-body simulation (Table 1: Intel's multi-core cloth demo,
graph of nodes joined by springs, parallel_reduce_hetero).

Cloth is a grid of mass points connected by structural and shear springs
stored as per-node neighbour lists (pointer-based, like the original).
Each step computes spring + gravity forces and integrates; the reduction
accumulates total kinetic energy (the Body's ``join`` adds partial sums),
mirroring how the original tracks convergence while it relaxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ir.types import F32, I32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register

SPRING_K = 40.0
DAMPING = 0.97
GRAVITY = -0.8
DT = 0.016

SOURCE = """
class ClothNode {
public:
  float x; float y; float z;
  float vx; float vy; float vz;
  float inv_mass;                 // 0 for pinned nodes
  int num_springs;
  int first_spring;               // index into spring arrays
};

class StepBody {
public:
  ClothNode* nodes;
  int* spring_other;              // neighbour node index per spring
  float* spring_rest;             // rest length per spring
  float* new_vx; float* new_vy; float* new_vz;
  float kinetic;                  // reduction value

  void operator()(int i) {
    ClothNode* node = &nodes[i];
    float fx = 0.0f;
    float fy = -0.8f;
    float fz = 0.0f;
    int start = node->first_spring;
    int end = start + node->num_springs;
    for (int s = start; s < end; s++) {
      ClothNode* other = &nodes[spring_other[s]];
      float dx = other->x - node->x;
      float dy = other->y - node->y;
      float dz = other->z - node->z;
      float len = sqrtf(dx*dx + dy*dy + dz*dz + 0.000001f);
      float stretch = len - spring_rest[s];
      float f = 40.0f * stretch / len;
      fx += f * dx;
      fy += f * dy;
      fz += f * dz;
    }
    float vx = (node->vx + fx * 0.016f * node->inv_mass) * 0.97f;
    float vy = (node->vy + fy * 0.016f * node->inv_mass) * 0.97f;
    float vz = (node->vz + fz * 0.016f * node->inv_mass) * 0.97f;
    new_vx[i] = vx;
    new_vy[i] = vy;
    new_vz[i] = vz;
    kinetic += 0.5f * (vx*vx + vy*vy + vz*vz);
  }

  void join(StepBody& other) {
    kinetic += other.kinetic;
  }
};

class IntegrateBody {
public:
  ClothNode* nodes;
  float* new_vx; float* new_vy; float* new_vz;

  void operator()(int i) {
    ClothNode* node = &nodes[i];
    node->vx = new_vx[i];
    node->vy = new_vy[i];
    node->vz = new_vz[i];
    node->x += node->vx * 0.016f * (node->inv_mass > 0.0f ? 1.0f : 0.0f);
    node->y += node->vy * 0.016f * (node->inv_mass > 0.0f ? 1.0f : 0.0f);
    node->z += node->vz * 0.016f * (node->inv_mass > 0.0f ? 1.0f : 0.0f);
  }
};
"""


@dataclass
class ClothState:
    step_body: object
    integrate_body: object
    nodes: object
    width: int
    height: int
    steps: int
    springs: list
    kinetic_per_step: list


@register
class ClothPhysicsWorkload(Workload):
    name = "ClothPhysics"
    origin = "Intel"
    data_structure = "graph"
    parallel_construct = "parallel_reduce_hetero"
    body_class = "StepBody"
    input_description = "grid cloth with structural + shear springs"
    source = SOURCE

    def grid(self, scale: float) -> tuple[int, int, int]:
        side = max(6, int(16 * scale))
        steps = max(2, int(4 * scale))
        return side, side, steps

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> ClothState:
        width, height, steps = self.grid(scale)
        n = width * height

        springs_per_node: list[list[tuple[int, float]]] = [[] for _ in range(n)]

        def node_at(x, y):
            return y * width + x

        spacing = 1.0 / max(width - 1, 1)
        for y in range(height):
            for x in range(width):
                here = node_at(x, y)
                neighbours = [
                    (x + 1, y, spacing),
                    (x - 1, y, spacing),
                    (x, y + 1, spacing),
                    (x, y - 1, spacing),
                    (x + 1, y + 1, spacing * math.sqrt(2)),
                    (x - 1, y + 1, spacing * math.sqrt(2)),
                    (x + 1, y - 1, spacing * math.sqrt(2)),
                    (x - 1, y - 1, spacing * math.sqrt(2)),
                ]
                for nx, ny, rest in neighbours:
                    if 0 <= nx < width and 0 <= ny < height:
                        springs_per_node[here].append((node_at(nx, ny), rest))

        flat_other: list[int] = []
        flat_rest: list[float] = []
        nodes = rt.new_array("ClothNode", n)
        for index in range(n):
            x = index % width
            y = index // width
            node = nodes[index]
            node.x = x * spacing
            node.y = 0.0
            node.z = y * spacing
            node.inv_mass = 0.0 if (y == 0 and (x == 0 or x == width - 1)) else 1.0
            node.first_spring = len(flat_other)
            node.num_springs = len(springs_per_node[index])
            for other, rest in springs_per_node[index]:
                flat_other.append(other)
                flat_rest.append(rest)

        spring_other = rt.new_array(I32, len(flat_other))
        spring_other.fill_from(flat_other)
        spring_rest = rt.new_array(F32, len(flat_rest))
        spring_rest.fill_from(flat_rest)
        new_vx = rt.new_array(F32, n)
        new_vy = rt.new_array(F32, n)
        new_vz = rt.new_array(F32, n)

        step_body = rt.new("StepBody")
        step_body.nodes = nodes
        step_body.spring_other = spring_other
        step_body.spring_rest = spring_rest
        step_body.new_vx = new_vx
        step_body.new_vy = new_vy
        step_body.new_vz = new_vz
        step_body.kinetic = 0.0

        integrate_body = rt.new("IntegrateBody")
        integrate_body.nodes = nodes
        integrate_body.new_vx = new_vx
        integrate_body.new_vy = new_vy
        integrate_body.new_vz = new_vz

        springs = [list(s) for s in springs_per_node]
        return ClothState(
            step_body, integrate_body, nodes, width, height, steps, springs, []
        )

    def run(self, rt, state: ClothState, on_cpu: bool = False) -> list[ExecutionReport]:
        n = state.width * state.height
        reports = []
        state.kinetic_per_step.clear()
        for _ in range(state.steps):
            state.step_body.kinetic = 0.0
            reports.append(
                rt.parallel_reduce_hetero(n, state.step_body, on_cpu=on_cpu)
            )
            state.kinetic_per_step.append(state.step_body.kinetic)
            reports.append(
                rt.parallel_for_hetero(n, state.integrate_body, on_cpu=on_cpu)
            )
        return reports

    def validate(self, rt, state: ClothState) -> None:
        # Energy must be finite and positive once the cloth starts falling,
        # and pinned corners must not move.
        assert all(math.isfinite(k) for k in state.kinetic_per_step)
        assert state.kinetic_per_step[-1] > 0.0
        top_left = state.nodes[0]
        assert top_left.x == 0.0 and top_left.y == 0.0
        # unpinned nodes fell (y decreased under gravity)
        middle = state.nodes[state.width * (state.height // 2) + state.width // 2]
        assert middle.y < 0.0
