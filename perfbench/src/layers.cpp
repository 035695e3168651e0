#include "layers.h"

#include <algorithm>

#include "asr/dtw.h"
#include "asr/mfcc.h"
#include "asr/segmenter.h"
#include "asr/vad.h"
#include "common/json_min.h"
#include "defense/features.h"
#include "defense/stream.h"
#include "serve/pipeline.h"

namespace pb {

namespace {

// The analysis windows a stream detector of `cfg` scores on `capture`:
// full windows every hop, plus the partial tail the finish() flush takes.
std::vector<ivc::audio::buffer> analysis_windows(
    const ivc::audio::buffer& capture, const ivc::defense::stream_config& cfg) {
  const double rate = capture.sample_rate_hz;
  const auto window = static_cast<std::size_t>(cfg.window_s * rate);
  const auto hop = static_cast<std::size_t>(cfg.hop_s * rate);
  std::vector<ivc::audio::buffer> out;
  for (std::size_t start = 0; start < capture.size(); start += hop) {
    const std::size_t end = std::min(start + window, capture.size());
    out.push_back({{capture.samples.begin() + static_cast<std::ptrdiff_t>(start),
                    capture.samples.begin() + static_cast<std::ptrdiff_t>(end)},
                   rate});
    if (end == capture.size()) {
      break;
    }
  }
  return out;
}

}  // namespace

layer_counts replay_layers(const trained_models& models,
                           const script_pool& pool,
                           const ivc::serve::serve_config& session_config,
                           span_recorder& spans) {
  const ivc::asr::recognizer& rec = *models.recognizer;
  const ivc::defense::stream_config& stream_cfg = session_config.stream;
  ivc::serve::pipeline_config pipe_cfg;
  pipe_cfg.recognizer = models.recognizer;
  pipe_cfg.decision_window_s = stream_cfg.window_s;

  layer_counts counts;
  // Trimmed-utterance features of every utterance, for the DTW pairs.
  std::vector<ivc::asr::feature_matrix> utterance_features;
  for (std::size_t s = 0; s < pool.scripts.size(); ++s) {
    const auto sid = static_cast<std::int64_t>(s);
    const ivc::audio::buffer& capture = pool.scripts[s].capture;
    const std::vector<ivc::audio::buffer>& blocks = pool.blocks[s];
    const scoped_span root{spans, "layers.script", sid};
    counts.blocks += blocks.size();
    counts.audio_s += capture.duration_s();

    // defense: the stream detector block by block, then its features and
    // classifier on each analysis window.
    ivc::defense::stream_detector detector{models.detector, stream_cfg};
    std::vector<std::vector<ivc::defense::stream_event>> events(blocks.size());
    std::vector<ivc::defense::stream_event> tail;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const scoped_span span{spans, "defense.detect", sid,
                             static_cast<std::int64_t>(b)};
      events[b] = detector.feed(blocks[b]);
    }
    {
      const scoped_span span{spans, "defense.detect", sid,
                             static_cast<std::int64_t>(blocks.size())};
      tail = detector.finish();
    }
    const std::vector<ivc::audio::buffer> windows =
        analysis_windows(capture, stream_cfg);
    for (std::size_t w = 0; w < windows.size(); ++w) {
      ivc::defense::trace_features f;
      {
        const scoped_span span{spans, "defense.features", sid,
                               static_cast<std::int64_t>(w)};
        f = ivc::defense::extract_trace_features(windows[w],
                                                 stream_cfg.features);
      }
      const scoped_span span{spans, "defense.classify", sid,
                             static_cast<std::int64_t>(w)};
      (void)models.detector.classifier().predict_probability(f);
    }
    counts.windows += windows.size();

    // asr: segmenter block by block, then recognizer, MFCC and DTW on
    // each utterance it emits.
    ivc::asr::utterance_segmenter segmenter{pipe_cfg.segmenter};
    std::vector<ivc::asr::utterance> utterances;
    for (std::size_t b = 0; b <= blocks.size(); ++b) {
      const scoped_span span{spans, "asr.segment", sid,
                             static_cast<std::int64_t>(b)};
      std::vector<ivc::asr::utterance> out =
          b < blocks.size() ? segmenter.feed(blocks[b]) : segmenter.finish();
      utterances.insert(utterances.end(), out.begin(), out.end());
    }
    const ivc::asr::mfcc_extractor mfcc{rec.config().mfcc,
                                        capture.sample_rate_hz};
    for (std::size_t u = 0; u < utterances.size(); ++u) {
      const auto uid = static_cast<std::int64_t>(u);
      counts.utterance_s += utterances[u].samples.duration_s();
      {
        const scoped_span span{spans, "asr.recognize", sid, uid};
        (void)rec.recognize(utterances[u].samples);
      }
      const ivc::audio::buffer trimmed =
          ivc::asr::trim_to_activity(utterances[u].samples, rec.config().vad);
      const scoped_span span{spans, "asr.mfcc", sid, uid};
      utterance_features.push_back(mfcc.extract(trimmed));
    }
    counts.utterances += utterances.size();

    // serve: the command pipeline on the detector's own verdicts, then a
    // detection session of the workload's config, snapshotted while idle.
    ivc::serve::command_pipeline pipeline{pipe_cfg};
    for (std::size_t b = 0; b <= blocks.size(); ++b) {
      std::vector<ivc::serve::command_outcome> outcomes;
      {
        const scoped_span span{spans, "serve.pipeline", sid,
                               static_cast<std::int64_t>(b)};
        outcomes = b < blocks.size() ? pipeline.feed(blocks[b], events[b])
                                     : pipeline.finish(tail);
      }
      for (const ivc::serve::command_outcome& o : outcomes) {
        counts.pipeline_asr_s += o.asr_s;
      }
    }
    ivc::serve::detection_session session{s, models.detector, session_config};
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const scoped_span span{spans, "serve.session", sid,
                             static_cast<std::int64_t>(b)};
      (void)session.offer(blocks[b]);
      (void)session.process();
    }
    std::string image;
    {
      const scoped_span span{spans, "serve.snapshot_encode", sid};
      ivc::json::value snap;
      if (session.try_snapshot(snap)) {
        image = ivc::json::to_binary(snap);
      }
    }
    counts.snapshot_bytes += static_cast<double>(image.size());
    if (!image.empty()) {
      const scoped_span span{spans, "serve.snapshot_decode", sid};
      ivc::serve::detection_session restored{s, models.detector,
                                             session_config};
      restored.restore(ivc::json::from_binary(image));
    }
    const scoped_span span{spans, "serve.session", sid,
                           static_cast<std::int64_t>(blocks.size())};
    session.close();
    (void)session.process();
  }
  counts.snapshot_bytes /= static_cast<double>(std::max<std::size_t>(
      pool.scripts.size(), 1));

  // DTW: each utterance against as many others as the recognizer holds
  // templates, cycling through the workload's utterances.
  const std::size_t n = utterance_features.size();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t t = 0; t < rec.num_templates(); ++t) {
      const std::size_t v = (u + 1 + t) % n;
      const scoped_span span{spans, "asr.dtw", static_cast<std::int64_t>(u),
                             static_cast<std::int64_t>(t)};
      (void)ivc::asr::dtw_distance(utterance_features[u],
                                   utterance_features[v], rec.config().dtw);
      ++counts.template_pairs;
    }
  }
  return counts;
}

}  // namespace pb
