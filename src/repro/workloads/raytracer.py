"""Raytracer (Table 1: in-house, scene graph of objects and lights in
pointer vectors, virtual-function dispatch for intersection).

One work-item per pixel: cast a primary ray through the scene, find the
nearest hit via virtual ``intersect`` calls on the shape hierarchy, shade
with point lights (shadow rays included).  Relative to the other eight
workloads the control flow is uniform across pixels — the paper's Figure 6
shows Raytracer with the *lowest* irregularity, and it gets the biggest
GPU win (9.88x on the Ultrabook).

The ``flattened`` variant builds the same scene with shapes flattened into
plain arrays indexed by integers (no pointers, no virtual calls) and an
equivalent kernel — the hand-written "OpenCL 1.2" comparator of the
paper's section 5.4 used to measure the overhead of software SVM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ir.types import F32, I32, I64, ptr
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register

SOURCE = """
class Ray {
public:
  float ox; float oy; float oz;
  float dx; float dy; float dz;
};

class Shape {
public:
  float r; float g; float b;       // surface colour
  virtual float intersect(Ray* ray) { return -1.0f; }
  virtual void normal_at(float px, float py, float pz,
                         float* nx, float* ny, float* nz) {}
};

class Sphere : public Shape {
public:
  float cx; float cy; float cz;
  float radius;
  virtual float intersect(Ray* ray) {
    float lx = cx - ray->ox;
    float ly = cy - ray->oy;
    float lz = cz - ray->oz;
    float tca = lx * ray->dx + ly * ray->dy + lz * ray->dz;
    float d2 = lx*lx + ly*ly + lz*lz - tca*tca;
    float r2 = radius * radius;
    if (d2 > r2) return -1.0f;
    float thc = sqrtf(r2 - d2);
    float t0 = tca - thc;
    float t1 = tca + thc;
    if (t0 > 0.001f) return t0;
    if (t1 > 0.001f) return t1;
    return -1.0f;
  }
  virtual void normal_at(float px, float py, float pz,
                         float* nx, float* ny, float* nz) {
    float inv = rsqrtf((px-cx)*(px-cx) + (py-cy)*(py-cy) + (pz-cz)*(pz-cz) + 0.000001f);
    *nx = (px - cx) * inv;
    *ny = (py - cy) * inv;
    *nz = (pz - cz) * inv;
  }
};

class Plane : public Shape {
public:
  float ny_axis;                   // plane y = ny_axis, normal +y
  virtual float intersect(Ray* ray) {
    if (ray->dy > -0.0001f && ray->dy < 0.0001f) return -1.0f;
    float t = (ny_axis - ray->oy) / ray->dy;
    if (t > 0.001f) return t;
    return -1.0f;
  }
  virtual void normal_at(float px, float py, float pz,
                         float* nx, float* ny, float* nz) {
    *nx = 0.0f; *ny = 1.0f; *nz = 0.0f;
  }
};

class Light {
public:
  float x; float y; float z;
  float intensity;
};

class Scene {
public:
  Shape** shapes;
  int num_shapes;
  Light** lights;
  int num_lights;
};

class RenderBody {
public:
  Scene* scene;
  float* framebuffer;              // rgb per pixel
  int width; int height;

  float trace_shadow(float px, float py, float pz,
                     float lx, float ly, float lz, float dist) {
    Ray shadow;
    shadow.ox = px; shadow.oy = py; shadow.oz = pz;
    shadow.dx = lx; shadow.dy = ly; shadow.dz = lz;
    Scene* s = scene;
    for (int k = 0; k < s->num_shapes; k++) {
      float t = s->shapes[k]->intersect(&shadow);
      if (t > 0.0f && t < dist) return 0.35f;   // soft occlusion
    }
    return 1.0f;
  }

  void operator()(int i) {
    int x = i % width;
    int y = i / width;
    Ray ray;
    ray.ox = 0.0f; ray.oy = 1.0f; ray.oz = -4.0f;
    float fx = ((float)x / (float)width) * 2.0f - 1.0f;
    float fy = 1.0f - ((float)y / (float)height) * 2.0f;
    float inv = rsqrtf(fx*fx + fy*fy + 1.0f);
    ray.dx = fx * inv;
    ray.dy = fy * inv;
    ray.dz = 1.0f * inv;

    Scene* s = scene;
    float best_t = 1000000.0f;
    int best = -1;
    for (int k = 0; k < s->num_shapes; k++) {
      float t = s->shapes[k]->intersect(&ray);
      if (t > 0.0f && t < best_t) {
        best_t = t;
        best = k;
      }
    }
    float r = 0.05f; float g = 0.05f; float b = 0.1f;  // sky
    if (best >= 0) {
      Shape* shape = s->shapes[best];
      float px = ray.ox + ray.dx * best_t;
      float py = ray.oy + ray.dy * best_t;
      float pz = ray.oz + ray.dz * best_t;
      float nx; float ny; float nz;
      shape->normal_at(px, py, pz, &nx, &ny, &nz);
      float lit = 0.08f;                         // ambient
      for (int l = 0; l < s->num_lights; l++) {
        Light* light = s->lights[l];
        float lx = light->x - px;
        float ly = light->y - py;
        float lz = light->z - pz;
        float dist2 = lx*lx + ly*ly + lz*lz;
        float invd = rsqrtf(dist2 + 0.000001f);
        lx *= invd; ly *= invd; lz *= invd;
        float lambert = nx*lx + ny*ly + nz*lz;
        if (lambert > 0.0f) {
          float vis = trace_shadow(px + nx*0.01f, py + ny*0.01f, pz + nz*0.01f,
                                   lx, ly, lz, dist2 * invd);
          lit += lambert * light->intensity * vis;
        }
      }
      r = shape->r * lit;
      g = shape->g * lit;
      b = shape->b * lit;
    }
    framebuffer[i * 3] = r;
    framebuffer[i * 3 + 1] = g;
    framebuffer[i * 3 + 2] = b;
  }
};
"""

# Hand-flattened comparator (section 5.4): same scene, arrays + indices,
# no virtual calls, no pointer-containing structures.
FLATTENED_SOURCE = """
class FlatRenderBody {
public:
  // shape i: kind[i] (0 sphere, 1 plane), params[i*4..] = cx,cy,cz,r or y
  int* kind;
  float* params;
  float* colour;                  // rgb per shape
  int num_shapes;
  float* light_pos;               // xyz per light
  float* light_intensity;
  int num_lights;
  float* framebuffer;
  int width; int height;

  float intersect_one(int k, float ox, float oy, float oz,
                      float dx, float dy, float dz) {
    float* p = &params[k * 4];
    if (kind[k] == 0) {
      float lx = p[0] - ox; float ly = p[1] - oy; float lz = p[2] - oz;
      float tca = lx*dx + ly*dy + lz*dz;
      float d2 = lx*lx + ly*ly + lz*lz - tca*tca;
      float r2 = p[3] * p[3];
      if (d2 > r2) return -1.0f;
      float thc = sqrtf(r2 - d2);
      float t0 = tca - thc;
      float t1 = tca + thc;
      if (t0 > 0.001f) return t0;
      if (t1 > 0.001f) return t1;
      return -1.0f;
    }
    if (dy > -0.0001f && dy < 0.0001f) return -1.0f;
    float t = (p[0] - oy) / dy;
    if (t > 0.001f) return t;
    return -1.0f;
  }

  void operator()(int i) {
    int x = i % width;
    int y = i / width;
    float ox = 0.0f; float oy = 1.0f; float oz = -4.0f;
    float fx = ((float)x / (float)width) * 2.0f - 1.0f;
    float fy = 1.0f - ((float)y / (float)height) * 2.0f;
    float inv = rsqrtf(fx*fx + fy*fy + 1.0f);
    float dx = fx * inv; float dy = fy * inv; float dz = 1.0f * inv;

    float best_t = 1000000.0f;
    int best = -1;
    for (int k = 0; k < num_shapes; k++) {
      float t = intersect_one(k, ox, oy, oz, dx, dy, dz);
      if (t > 0.0f && t < best_t) { best_t = t; best = k; }
    }
    float r = 0.05f; float g = 0.05f; float b = 0.1f;
    if (best >= 0) {
      float px = ox + dx * best_t;
      float py = oy + dy * best_t;
      float pz = oz + dz * best_t;
      float nx; float ny; float nz;
      if (kind[best] == 0) {
        float* bp = &params[best * 4];
        float ux = px - bp[0]; float uy = py - bp[1]; float uz = pz - bp[2];
        float invn = rsqrtf(ux*ux + uy*uy + uz*uz + 0.000001f);
        nx = ux * invn;
        ny = uy * invn;
        nz = uz * invn;
      } else {
        nx = 0.0f; ny = 1.0f; nz = 0.0f;
      }
      float lit = 0.08f;
      for (int l = 0; l < num_lights; l++) {
        float lx = light_pos[l*3] - px;
        float ly = light_pos[l*3+1] - py;
        float lz = light_pos[l*3+2] - pz;
        float dist2 = lx*lx + ly*ly + lz*lz;
        float invd = rsqrtf(dist2 + 0.000001f);
        lx *= invd; ly *= invd; lz *= invd;
        float lambert = nx*lx + ny*ly + nz*lz;
        if (lambert > 0.0f) {
          float sx = px + nx*0.01f; float sy = py + ny*0.01f; float sz = pz + nz*0.01f;
          float vis = 1.0f;
          for (int k = 0; k < num_shapes; k++) {
            float t = intersect_one(k, sx, sy, sz, lx, ly, lz);
            if (t > 0.0f && t < dist2 * invd) { vis = 0.35f; }
          }
          lit += lambert * light_intensity[l] * vis;
        }
      }
      r = colour[best*3] * lit;
      g = colour[best*3+1] * lit;
      b = colour[best*3+2] * lit;
    }
    framebuffer[i * 3] = r;
    framebuffer[i * 3 + 1] = g;
    framebuffer[i * 3 + 2] = b;
  }
};
"""


def scene_spec(num_spheres: int = 6, num_lights: int = 3):
    """Deterministic scene: a floor plane plus a ring of spheres."""
    shapes = [("plane", (0.0,), (0.55, 0.55, 0.5))]
    for index in range(num_spheres):
        angle = 2.0 * math.pi * index / num_spheres
        shapes.append(
            (
                "sphere",
                (1.6 * math.cos(angle), 0.45 + 0.12 * (index % 3), 1.0 + 1.4 * math.sin(angle), 0.45),
                (0.9 if index % 3 == 0 else 0.2,
                 0.9 if index % 3 == 1 else 0.2,
                 0.9 if index % 3 == 2 else 0.2),
            )
        )
    lights = [
        (3.0, 4.0, -2.0, 0.9),
        (-3.0, 3.0, -1.0, 0.5),
        (0.0, 5.0, 3.0, 0.4),
    ][:num_lights]
    return shapes, lights


@dataclass
class RaytraceState:
    body: object
    framebuffer: object
    width: int
    height: int


@register
class RaytracerWorkload(Workload):
    name = "Raytracer"
    origin = "In-house"
    data_structure = "graph"
    parallel_construct = "parallel_for_hetero"
    body_class = "RenderBody"
    input_description = "sphere ring + plane, 3 point lights, shadows"
    source = SOURCE

    def resolution(self, scale: float) -> tuple[int, int]:
        width = max(16, int(40 * scale))
        height = max(12, int(30 * scale))
        return width, height

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> RaytraceState:
        width, height = self.resolution(scale)
        shapes, lights = scene_spec()

        shape_ptrs = rt.new_array(ptr(I64), len(shapes))
        for index, (kind, params, colour) in enumerate(shapes):
            if kind == "sphere":
                view = rt.new("Sphere")
                view.cx, view.cy, view.cz, view.radius = params
            else:
                view = rt.new("Plane")
                view.ny_axis = params[0]
            view.r, view.g, view.b = colour
            shape_ptrs[index] = view.addr

        light_ptrs = rt.new_array(ptr(I64), len(lights))
        for index, (x, y, z, intensity) in enumerate(lights):
            view = rt.new("Light")
            view.x, view.y, view.z = x, y, z
            view.intensity = intensity
            light_ptrs[index] = view.addr

        scene = rt.new("Scene")
        scene.shapes = shape_ptrs
        scene.num_shapes = len(shapes)
        scene.lights = light_ptrs
        scene.num_lights = len(lights)

        framebuffer = rt.new_array(F32, width * height * 3)
        body = rt.new("RenderBody")
        body.scene = scene
        body.framebuffer = framebuffer
        body.width = width
        body.height = height
        return RaytraceState(body, framebuffer, width, height)

    def run(self, rt, state: RaytraceState, on_cpu: bool = False) -> list[ExecutionReport]:
        n = state.width * state.height
        return [rt.parallel_for_hetero(n, state.body, on_cpu=on_cpu)]

    def validate(self, rt, state: RaytraceState) -> None:
        pixels = state.framebuffer.to_list()
        assert len(pixels) == state.width * state.height * 3
        assert all(math.isfinite(p) and 0.0 <= p <= 4.0 for p in pixels)
        # sky visible at the top corners, floor at the bottom — i.e. the
        # image is not constant and geometry is where it should be
        top_left = pixels[0:3]
        assert top_left == [
            __import__("struct").unpack("f", __import__("struct").pack("f", v))[0]
            for v in (0.05, 0.05, 0.1)
        ]
        bottom_middle = (state.height - 1) * state.width + state.width // 2
        assert pixels[bottom_middle * 3] != 0.05
        # a sphere pixel near the center should be coloured
        center = (state.height // 2) * state.width + int(state.width * 0.8)
        assert sum(pixels[center * 3 : center * 3 + 3]) > 0.05


@register
class FlatRaytracerWorkload(RaytracerWorkload):
    """The hand-flattened OpenCL-style comparator (paper section 5.4):
    the same scene, resolution and launch as :class:`RaytracerWorkload`,
    with the scene flattened to arrays."""

    name = "RaytracerFlat"
    origin = "In-house (OpenCL 1.2 comparator)"
    data_structure = "flattened arrays"
    body_class = "FlatRenderBody"
    input_description = "same scene as Raytracer, flattened to arrays"
    source = FLATTENED_SOURCE
    # Bound here as well as inherited: a workload's build / run /
    # validate are each looked up in its own class dict by the span
    # instrumentation of benchmarks/e2e.
    run = RaytracerWorkload.run

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> RaytraceState:
        width, height = self.resolution(scale)
        shapes, lights = scene_spec()

        kind = rt.new_array(I32, len(shapes))
        params = rt.new_array(F32, len(shapes) * 4)
        colour = rt.new_array(F32, len(shapes) * 3)
        for index, (skind, sparams, scolour) in enumerate(shapes):
            kind[index] = 0 if skind == "sphere" else 1
            padded = list(sparams) + [0.0] * (4 - len(sparams))
            for pos, value in enumerate(padded):
                params[index * 4 + pos] = value
            for pos, value in enumerate(scolour):
                colour[index * 3 + pos] = value

        light_pos = rt.new_array(F32, len(lights) * 3)
        light_intensity = rt.new_array(F32, len(lights))
        for index, (x, y, z, intensity) in enumerate(lights):
            light_pos[index * 3] = x
            light_pos[index * 3 + 1] = y
            light_pos[index * 3 + 2] = z
            light_intensity[index] = intensity

        framebuffer = rt.new_array(F32, width * height * 3)
        body = rt.new("FlatRenderBody")
        body.kind = kind
        body.params = params
        body.colour = colour
        body.num_shapes = len(shapes)
        body.light_pos = light_pos
        body.light_intensity = light_intensity
        body.num_lights = len(lights)
        body.framebuffer = framebuffer
        body.width = width
        body.height = height
        return RaytraceState(body, framebuffer, width, height)

    def validate(self, rt, state: RaytraceState) -> None:
        pixels = state.framebuffer.to_list()
        assert all(math.isfinite(p) for p in pixels)
