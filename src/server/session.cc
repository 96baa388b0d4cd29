#include "server/session.h"

#include <sstream>

#include "common/string_util.h"

namespace pctagg {

namespace {

Result<VpctStrategy> VpctStrategyByName(const std::string& name) {
  VpctStrategy s;  // defaults = the paper's best strategy
  if (name == "best") return s;
  if (name == "noindex") {
    s.matching_indexes = false;
    return s;
  }
  if (name == "update") {
    s.insert_result = false;
    return s;
  }
  if (name == "rescan") {
    s.fj_from_fk = false;
    return s;
  }
  return Status::InvalidArgument(
      "SET vpct: expected auto|best|noindex|update|rescan, got " + name);
}

Result<HorizontalStrategy> HorizontalStrategyByName(const std::string& name) {
  HorizontalStrategy s;
  if (name == "case") {
    s.method = HorizontalMethod::kCaseDirect;
    return s;
  }
  if (name == "case_fv") {
    s.method = HorizontalMethod::kCaseFromFV;
    return s;
  }
  if (name == "spj") {
    s.method = HorizontalMethod::kSpjDirect;
    return s;
  }
  if (name == "spj_fv") {
    s.method = HorizontalMethod::kSpjFromFV;
    return s;
  }
  return Status::InvalidArgument(
      "SET horizontal: expected auto|case|case_fv|spj|spj_fv, got " + name);
}

}  // namespace

Result<std::string> Session::ApplySet(const std::string& args) {
  std::istringstream in(args);
  std::string option, value;
  in >> option >> value;
  option = ToLower(option);
  value = ToLower(value);
  if (option.empty() || value.empty()) {
    return Status::InvalidArgument("SET expects: SET <option> <value>");
  }
  if (option == "timeout_ms") {
    if (value == "default") {
      timeout_ms_ = default_timeout_ms_;
    } else if (IsInteger(value)) {
      timeout_ms_ = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return Status::InvalidArgument("SET timeout_ms expects an integer or 'default'");
    }
    return "timeout_ms = " + std::to_string(timeout_ms_);
  }
  if (option == "cache") {
    if (value == "on") {
      options_.use_summary_cache = true;
    } else if (value == "off") {
      options_.use_summary_cache = false;
    } else if (value == "default") {
      options_.use_summary_cache.reset();
    } else {
      return Status::InvalidArgument("SET cache expects on|off|default");
    }
    return "cache = " + value;
  }
  if (option == "vpct") {
    if (value == "auto") {
      options_.vpct_strategy.reset();
    } else {
      PCTAGG_ASSIGN_OR_RETURN(VpctStrategy s, VpctStrategyByName(value));
      options_.vpct_strategy = s;
    }
    vpct_name_ = value;
    return "vpct = " + value;
  }
  if (option == "dop") {
    // Degree of parallelism for engine kernels: 1 = serial, 'auto' = the
    // shared worker pool's size, n = up to n workers (capped to keep a typo
    // from requesting thousands of morsel helpers).
    constexpr size_t kMaxDop = 64;
    if (value == "default") {
      options_.degree_of_parallelism = 1;
    } else if (value == "auto") {
      options_.degree_of_parallelism = 0;
    } else if (IsInteger(value)) {
      size_t dop = std::strtoull(value.c_str(), nullptr, 10);
      if (dop < 1 || dop > kMaxDop) {
        return Status::InvalidArgument("SET dop expects 1..64");
      }
      options_.degree_of_parallelism = dop;
    } else {
      return Status::InvalidArgument(
          "SET dop expects an integer, 'auto' or 'default'");
    }
    return "dop = " + DescribeDop();
  }
  if (option == "trace") {
    if (value == "on") {
      trace_ = true;
    } else if (value == "off" || value == "default") {
      trace_ = false;
    } else {
      return Status::InvalidArgument("SET trace expects on|off");
    }
    return std::string("trace = ") + (trace_ ? "on" : "off");
  }
  if (option == "horizontal") {
    if (value == "auto") {
      options_.horizontal_strategy.reset();
    } else {
      PCTAGG_ASSIGN_OR_RETURN(HorizontalStrategy s,
                              HorizontalStrategyByName(value));
      options_.horizontal_strategy = s;
    }
    horizontal_name_ = value;
    return "horizontal = " + value;
  }
  if (option == "mqo") {
    // Multi-query shared-scan batching: auto = cost-model decision per
    // batch, on = always batch compatible queries, off = never batch.
    if (value == "auto" || value == "default") {
      options_.mqo = MqoMode::kAuto;
      mqo_name_ = "auto";
    } else if (value == "on") {
      options_.mqo = MqoMode::kOn;
      mqo_name_ = value;
    } else if (value == "off") {
      options_.mqo = MqoMode::kOff;
      mqo_name_ = value;
    } else {
      return Status::InvalidArgument("SET mqo expects auto|on|off");
    }
    return "mqo = " + mqo_name_;
  }
  if (option == "append_policy") {
    if (value == "auto" || value == "default") {
      options_.append_policy = AppendPolicy::kAuto;
      append_policy_name_ = "auto";
    } else if (value == "merge") {
      options_.append_policy = AppendPolicy::kMerge;
      append_policy_name_ = value;
    } else if (value == "recompute") {
      options_.append_policy = AppendPolicy::kRecompute;
      append_policy_name_ = value;
    } else {
      return Status::InvalidArgument(
          "SET append_policy expects auto|merge|recompute");
    }
    return "append_policy = " + append_policy_name_;
  }
  return Status::InvalidArgument("SET: unknown option: " + option);
}

std::string Session::Describe() const {
  std::string cache = "default";
  if (options_.use_summary_cache.has_value()) {
    cache = *options_.use_summary_cache ? "on" : "off";
  }
  return StrFormat(
      "session %llu\n"
      "timeout_ms = %llu\n"
      "cache = %s\n"
      "vpct = %s\n"
      "horizontal = %s\n"
      "mqo = %s\n"
      "dop = %s\n"
      "trace = %s\n"
      "append_policy = %s\n"
      "queries = %llu (%llu errors, %.3f ms total)\n",
      (unsigned long long)id_, (unsigned long long)timeout_ms_, cache.c_str(),
      vpct_name_.c_str(), horizontal_name_.c_str(), mqo_name_.c_str(), DescribeDop().c_str(),
      trace_ ? "on" : "off", append_policy_name_.c_str(),
      (unsigned long long)queries_, (unsigned long long)errors_,
      static_cast<double>(total_micros_) / 1000.0);
}

std::string Session::DescribeDop() const {
  if (options_.degree_of_parallelism == 0) return "auto";
  return std::to_string(options_.degree_of_parallelism);
}

}  // namespace pctagg
