"""Face detection with a Haar-like cascade (Table 1: OpenCV-style).

A cascade of stages is trained synthetically over a generated image: each
stage holds a few rectangle features evaluated on the integral image; a
window either passes to the next stage or aborts.  As in the paper, most
windows abort in the first stages while a few (the bright blobs) survive
through all of them — the "highly dynamic behaviour ... not well-suited
for GPUs" that makes FaceDetect the one workload where GPU execution costs
more energy than the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.types import I32, I64
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register
from .inputs import integral_image, synthetic_image

NUM_STAGES = 22
FEATURES_PER_STAGE = 3
WINDOW = 8

SOURCE = """
class HaarFeature {
public:
  int x0; int y0; int x1; int y1;    // bright rect (window-relative)
  int dx0; int dy0; int dx1; int dy1; // dark rect
  float weight;
};

class CascadeStage {
public:
  HaarFeature* features;
  int num_features;
  float threshold;
};

class Cascade {
public:
  CascadeStage* stages;
  int num_stages;
  int window;
};

class DetectBody {
public:
  Cascade* cascade;
  long* integral;                  // (width+1) x (height+1)
  int stride;                      // width + 1
  int width; int height;           // valid window origins
  int* hits;                       // output: stages passed per window

  float rect_sum(int bx, int by, int x0, int y0, int x1, int y1) {
    long a = integral[(by + y0) * stride + (bx + x0)];
    long b = integral[(by + y0) * stride + (bx + x1)];
    long c = integral[(by + y1) * stride + (bx + x0)];
    long d = integral[(by + y1) * stride + (bx + x1)];
    return (float)(d - b - c + a);
  }

  void operator()(int i) {
    int bx = i % width;
    int by = i / width;
    Cascade* c = cascade;
    int stage = 0;
    int alive = 1;
    while (alive == 1 && stage < c->num_stages) {
      CascadeStage* s = &c->stages[stage];
      float score = 0.0f;
      for (int f = 0; f < s->num_features; f++) {
        HaarFeature* feat = &s->features[f];
        float bright = rect_sum(bx, by, feat->x0, feat->y0, feat->x1, feat->y1);
        float dark = rect_sum(bx, by, feat->dx0, feat->dy0, feat->dx1, feat->dy1);
        score += feat->weight * (bright - dark);
      }
      if (score < s->threshold) {
        alive = 0;
      } else {
        stage++;
      }
    }
    hits[i] = stage;
  }
};
"""


@dataclass
class FaceDetectState:
    body: object
    hits: object
    image: list
    integral: list
    stages_py: list
    width: int
    height: int


@register
class FaceDetectWorkload(Workload):
    name = "FaceDetect"
    origin = "OpenCV"
    data_structure = "cascade"
    parallel_construct = "parallel_for_hetero"
    body_class = "DetectBody"
    input_description = "synthetic image, 22-stage Haar cascade"
    source = SOURCE

    def image_size(self, scale: float) -> tuple[int, int]:
        width = max(24, int(48 * scale))
        height = max(20, int(40 * scale))
        return width, height

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> FaceDetectState:
        width, height = self.image_size(scale)
        image = synthetic_image(width, height)
        ii = integral_image(image)
        stride = width + 1

        flat = rt.new_array(I64, (width + 1) * (height + 1))
        flat.fill_from(v for row in ii for v in row)

        # Synthetic cascade shaped like a trained OpenCV one: stage 0
        # rejects ~40% of windows outright, every later stage passes ~85%
        # of its survivors, producing a geometric depth distribution (mean
        # ~3-4 stages, a thin tail running all 22).  Each stage uses its
        # own jittered rectangles so stage outcomes decorrelate — survival
        # is driven by per-window texture, which scatters the deep windows
        # across the image and therefore across SIMD warps.  That is the
        # "highly dynamic behaviour" that ruins GPU lane utilization in
        # the paper.
        import random as _random

        stages_py = []
        for stage in range(NUM_STAGES):
            rng = _random.Random(1000 + stage)
            features = []
            for f in range(FEATURES_PER_STAGE):
                w = rng.randint(2, WINDOW // 2)
                h = rng.randint(2, WINDOW // 2)
                bx0 = rng.randint(0, WINDOW - w)
                by0 = rng.randint(0, WINDOW - h)
                dx0 = rng.randint(0, WINDOW - w)
                dy0 = rng.randint(0, WINDOW - h)
                bright = (bx0, by0, bx0 + w, by0 + h)
                dark = (dx0, dy0, dx0 + w, dy0 + h)
                features.append((bright, dark, 1.0 / (1 + f)))
            threshold = -47.0 if stage == 0 else -180.0
            stages_py.append((features, threshold))

        feature_views = rt.new_array("HaarFeature", NUM_STAGES * FEATURES_PER_STAGE)
        stage_views = rt.new_array("CascadeStage", NUM_STAGES)
        index = 0
        for stage, (features, threshold) in enumerate(stages_py):
            stage_view = stage_views[stage]
            stage_view.features = feature_views.element_address(index)
            stage_view.num_features = len(features)
            stage_view.threshold = threshold
            for bright, dark, weight in features:
                fv = feature_views[index]
                fv.x0, fv.y0, fv.x1, fv.y1 = bright
                fv.dx0, fv.dy0, fv.dx1, fv.dy1 = dark
                fv.weight = weight
                index += 1

        cascade = rt.new("Cascade")
        cascade.stages = stage_views.addr
        cascade.num_stages = NUM_STAGES
        cascade.window = WINDOW

        out_width = width - WINDOW
        out_height = height - WINDOW
        hits = rt.new_array(I32, out_width * out_height)
        body = rt.new("DetectBody")
        body.cascade = cascade
        body.integral = flat
        body.stride = stride
        body.width = out_width
        body.height = out_height
        body.hits = hits
        return FaceDetectState(body, hits, image, ii, stages_py, out_width, out_height)

    def run(self, rt, state: FaceDetectState, on_cpu: bool = False) -> list[ExecutionReport]:
        n = state.width * state.height
        return [rt.parallel_for_hetero(n, state.body, on_cpu=on_cpu)]

    def validate(self, rt, state: FaceDetectState) -> None:
        got = state.hits.to_list()
        # exact check against the Python reference on a sample of windows
        sample = range(0, len(got), max(1, len(got) // 200))
        for index in sample:
            bx = index % state.width
            by = index // state.width
            want = _reference_stages(state.integral, state.stages_py, bx, by)
            assert got[index] == want, (index, got[index], want)
        # divergence sanity: the cascade must actually discriminate
        assert min(got) < NUM_STAGES
        assert max(got) > 1


def _rect_sum(ii, bx, by, x0, y0, x1, y1) -> int:
    return (
        ii[by + y1][bx + x1]
        - ii[by + y0][bx + x1]
        - ii[by + y1][bx + x0]
        + ii[by + y0][bx + x0]
    )


def _reference_stages(ii, stages_py, bx, by) -> int:
    import struct

    def f32(x):
        return struct.unpack("f", struct.pack("f", x))[0]

    stage = 0
    for features, threshold in stages_py:
        score = 0.0
        for bright, dark, weight in features:
            b = _rect_sum(ii, bx, by, *bright)
            d = _rect_sum(ii, bx, by, *dark)
            score = f32(score + f32(f32(weight) * f32(float(b) - float(d))))
        if score < f32(threshold):
            return stage
        stage += 1
    return stage
