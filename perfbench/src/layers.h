// The traced layer replay: each script of a workload's pool is driven
// through every layer's public calls on one thread, with a span around
// each call. Names: defense.detect, defense.features, defense.classify,
// asr.segment, asr.recognize, asr.mfcc, asr.dtw, serve.pipeline,
// serve.session, serve.snapshot_encode, serve.snapshot_decode, under one
// layers.script root span per script.
//
// Some calls run another layer's calls inside them, out of the spans'
// sight: the detection session runs a stream detector (and, configured
// with one, a command pipeline), the pipeline runs a segmenter and the
// recognizer, and the recognizer runs MFCC and DTW. The replay makes
// those inner calls again on the same inputs as spans of their own, so
// defense.features/classify and asr.mfcc/dtw re-measure work inside
// defense.detect and asr.recognize, not work beside it.
#pragma once

#include "fleet.h"
#include "serve/session.h"

namespace pb {

struct layer_counts {
  std::size_t blocks = 0;
  std::size_t windows = 0;
  std::size_t utterances = 0;
  std::size_t template_pairs = 0;
  double audio_s = 0.0;
  double utterance_s = 0.0;
  double snapshot_bytes = 0.0;  // mean binary image size, bytes
  // Recognizer wall time inside the pipeline's calls, as its outcomes
  // report it (command_outcome::asr_s).
  double pipeline_asr_s = 0.0;
};

// `session_config` is the workload's own per-session config (with or
// without the command pipeline); the pipeline and ASR layers are replayed
// on every workload's audio either way.
layer_counts replay_layers(const trained_models& models,
                           const script_pool& pool,
                           const ivc::serve::serve_config& session_config,
                           span_recorder& spans);

}  // namespace pb
