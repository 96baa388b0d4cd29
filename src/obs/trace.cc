#include "obs/trace.h"

#include <time.h>

#include <chrono>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace pctagg {
namespace obs {

namespace {

thread_local TraceNode* g_current_op = nullptr;

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RenderNode(const TraceNode& node, size_t depth, std::string* out) {
  std::string indent(depth * 2, ' ');
  const OpStats& s = node.stats;
  *out += indent + node.label;
  if (!node.detail.empty()) *out += ": " + node.detail;
  *out += "\n";
  // One stats line per node that recorded anything.
  std::string stats_line;
  if (s.cache_hit) stats_line += " cache=hit";
  if (s.rows_in != 0 || s.rows_out != 0) {
    stats_line += StrFormat(" rows_in=%llu rows_out=%llu",
                            (unsigned long long)s.rows_in,
                            (unsigned long long)s.rows_out);
  }
  if (s.morsels != 0) {
    stats_line += StrFormat(" morsels=%llu workers=%llu",
                            (unsigned long long)s.morsels,
                            (unsigned long long)s.workers);
  }
  if (s.hash_slots != 0) {
    stats_line += StrFormat(" hash_groups=%llu hash_slots=%llu load=%.2f",
                            (unsigned long long)s.hash_groups,
                            (unsigned long long)s.hash_slots, s.hash_load());
  }
  if (s.partials_merged != 0) {
    stats_line += StrFormat(" partials_merged=%llu",
                            (unsigned long long)s.partials_merged);
  }
  if (s.wall_ms != 0) {
    stats_line += StrFormat(" wall=%.3fms cpu=%.3fms", s.wall_ms, s.cpu_ms);
  }
  if (!stats_line.empty()) {
    *out += indent + "  [" + stats_line.substr(1) + "]\n";
  }
  for (const auto& child : node.children) {
    RenderNode(*child, depth + 1, out);
  }
}

}  // namespace

TraceNode* TraceNode::AddChild(std::string child_label,
                               std::string child_detail) {
  children.push_back(std::make_unique<TraceNode>());
  TraceNode* child = children.back().get();
  child->label = std::move(child_label);
  child->detail = std::move(child_detail);
  return child;
}

TraceNode* TraceNode::AddCopy(const TraceNode& node) {
  TraceNode* copy = AddChild(node.label, node.detail);
  copy->stats = node.stats;
  for (const auto& child : node.children) copy->AddCopy(*child);
  return copy;
}

uint64_t QueryTrace::ActualRowOps() const {
  uint64_t total = 0;
  // Statement nodes hold operator children; only leaves scan rows, so
  // summing rows_in over every node (statement nodes record none) is the
  // row-operation count.
  struct Walk {
    static void Visit(const TraceNode& n, uint64_t* total) {
      *total += n.stats.rows_in;
      for (const auto& c : n.children) Visit(*c, total);
    }
  };
  Walk::Visit(root_, &total);
  return total;
}

std::string PlanHeader::RenderHeader(const std::string& prefix) const {
  std::string out;
  out += prefix + "query class: " + query_class + "\n";
  if (!strategy.empty()) {
    out += prefix + "strategy: " + strategy + " (" + strategy_source + ")\n";
  }
  if (!predicted_costs.empty()) {
    out += prefix + "cost model:";
    for (const PredictedCost& pc : predicted_costs) {
      out += StrFormat(" %s=%.0f%s", pc.name.c_str(), pc.cost,
                       pc.chosen ? "*" : "");
    }
    out += "  (*=chosen, abstract row-op units)\n";
  }
  if (predicted_group_rows >= 0) {
    out += prefix +
           StrFormat("predicted group rows: %.0f", predicted_group_rows);
    if (actual_group_rows >= 0) {
      out += StrFormat("  actual: %.0f", actual_group_rows);
    }
    out += "\n";
  }
  return out;
}

std::string QueryTrace::Render() const {
  std::string out = RenderHeader();
  out += StrFormat("actual row ops: %llu\n",
                   (unsigned long long)ActualRowOps());
  out += StrFormat("total: %.3f ms\n", total_ms);
  out += "plan:\n";
  for (const auto& child : root_.children) {
    RenderNode(*child, 1, &out);
  }
  return out;
}

TraceNode* CurrentOp() { return g_current_op; }

namespace internal {
TraceNode* SwapCurrentOp(TraceNode* node) {
  TraceNode* previous = g_current_op;
  g_current_op = node;
  return previous;
}
}  // namespace internal

double ThreadCpuMs() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

ScopedTraceNode::ScopedTraceNode(TraceNode* node)
    : node_(node), previous_(nullptr) {
  if (node_ == nullptr) return;
  previous_ = internal::SwapCurrentOp(node_);
  wall_start_ms_ = WallMs();
  cpu_start_ms_ = ThreadCpuMs();
}

ScopedTraceNode::~ScopedTraceNode() {
  if (node_ == nullptr) return;
  node_->stats.wall_ms += WallMs() - wall_start_ms_;
  node_->stats.cpu_ms += ThreadCpuMs() - cpu_start_ms_;
  internal::SwapCurrentOp(previous_);
}

OpScope::OpScope(const char* label) {
  TraceNode* parent = g_current_op;
  if (parent == nullptr || !Enabled()) return;
  node_ = parent->AddChild(label);
  scope_ = std::make_unique<ScopedTraceNode>(node_);
}

OpScope::~OpScope() = default;

void MarkCacheHit() {
  if (g_current_op != nullptr) g_current_op->stats.cache_hit = true;
}

}  // namespace obs
}  // namespace pctagg
