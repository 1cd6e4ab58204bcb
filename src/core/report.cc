#include "src/core/report.h"

#include <cstdio>

#include <sstream>

namespace mumak {

std::string_view FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kRecoveryUnrecoverable:
      return "recovery-unrecoverable";
    case FindingKind::kRecoveryCrash:
      return "recovery-crash";
    case FindingKind::kRecoveryTimeout:
      return "recovery-timeout";
    case FindingKind::kUnflushedStore:
      return "unflushed-store";
    case FindingKind::kTransientData:
      return "transient-data";
    case FindingKind::kDirtyOverwrite:
      return "dirty-overwrite";
    case FindingKind::kRedundantFlush:
      return "redundant-flush";
    case FindingKind::kMultiStoreFlush:
      return "multi-store-flush";
    case FindingKind::kRedundantFence:
      return "redundant-fence";
    case FindingKind::kMultiFlushFence:
      return "multi-flush-fence";
  }
  return "unknown";
}

bool IsWarning(FindingKind kind) {
  switch (kind) {
    case FindingKind::kTransientData:
    case FindingKind::kMultiStoreFlush:
    case FindingKind::kMultiFlushFence:
      return true;
    default:
      return false;
  }
}

BugClass FindingBugClass(FindingKind kind) {
  switch (kind) {
    case FindingKind::kRecoveryUnrecoverable:
    case FindingKind::kRecoveryCrash:
    case FindingKind::kRecoveryTimeout:
      return BugClass::kAtomicity;  // fault injection exposes atomicity and
                                    // ordering violations (§4.1)
    case FindingKind::kUnflushedStore:
    case FindingKind::kDirtyOverwrite:
      return BugClass::kDurability;
    case FindingKind::kTransientData:
      return BugClass::kTransientData;
    case FindingKind::kRedundantFlush:
    case FindingKind::kMultiStoreFlush:
      return BugClass::kRedundantFlush;
    case FindingKind::kRedundantFence:
    case FindingKind::kMultiFlushFence:
      return BugClass::kRedundantFence;
  }
  return BugClass::kDurability;
}

void Report::Add(Finding finding) { findings_.push_back(std::move(finding)); }

uint64_t Report::BugCount() const {
  uint64_t count = 0;
  for (const Finding& f : findings_) {
    if (!IsWarning(f.kind)) {
      ++count;
    }
  }
  return count;
}

uint64_t Report::WarningCount() const {
  return findings_.size() - BugCount();
}

std::vector<Finding> Report::Bugs() const {
  std::vector<Finding> out;
  for (const Finding& f : findings_) {
    if (!IsWarning(f.kind)) {
      out.push_back(f);
    }
  }
  return out;
}

std::vector<Finding> Report::Warnings() const {
  std::vector<Finding> out;
  for (const Finding& f : findings_) {
    if (IsWarning(f.kind)) {
      out.push_back(f);
    }
  }
  return out;
}

void Report::Merge(const Report& other) {
  findings_.insert(findings_.end(), other.findings_.begin(),
                   other.findings_.end());
}

std::string Report::Render(bool include_warnings) const {
  std::ostringstream os;
  os << "=== Mumak report: " << BugCount() << " bug(s)";
  if (include_warnings) {
    os << ", " << WarningCount() << " warning(s)";
  }
  os << " ===\n";
  uint64_t index = 0;
  for (const Finding& f : findings_) {
    if (!include_warnings && IsWarning(f.kind)) {
      continue;
    }
    os << "[" << (IsWarning(f.kind) ? "WARN" : "BUG ") << " #" << index++
       << "] " << FindingKindName(f.kind);
    if (f.pm_offset != 0 || f.kind == FindingKind::kUnflushedStore) {
      os << " @ pm+0x" << std::hex << f.pm_offset << std::dec;
    }
    os << "\n";
    if (!f.detail.empty()) {
      os << "    " << f.detail << "\n";
    }
    if (!f.signal_name.empty() || f.timed_out) {
      os << "    sandbox:";
      if (!f.signal_name.empty()) {
        os << " signal=" << f.signal_name;
      }
      if (f.timed_out) {
        os << " timed-out";
      }
      if (f.recovery_wall_us != 0) {
        os << " wall=" << f.recovery_wall_us << "us";
      }
      os << "\n";
    }
    if (!f.dedup_of.empty()) {
      os << "    dedup-of " << f.dedup_of << "\n";
    }
    if (!f.location.empty()) {
      os << "    at " << f.location << "\n";
    }
  }
  return os.str();
}

std::string Report::RenderJson(bool include_warnings) const {
  auto escape = [](const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
          } else {
            out += c;
          }
      }
    }
    return out;
  };

  std::ostringstream os;
  os << "{\"bugs\": " << BugCount();
  os << ", \"warnings\": " << (include_warnings ? WarningCount() : 0);
  os << ", \"findings\": [";
  bool first = true;
  for (const Finding& f : findings_) {
    if (!include_warnings && IsWarning(f.kind)) {
      continue;
    }
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "{\"kind\": \"" << FindingKindName(f.kind) << "\"";
    os << ", \"severity\": \"" << (IsWarning(f.kind) ? "warning" : "bug")
       << "\"";
    os << ", \"source\": \""
       << (f.source == FindingSource::kFaultInjection ? "fault-injection"
                                                      : "trace-analysis")
       << "\"";
    os << ", \"bug_class\": \"" << BugClassName(FindingBugClass(f.kind))
       << "\"";
    os << ", \"pm_offset\": " << f.pm_offset;
    os << ", \"seq\": " << f.seq;
    os << ", \"detail\": \"" << escape(f.detail) << "\"";
    // Sandbox evidence is emitted only when present, so reports from
    // in-process runs (and pre-sandbox consumers) are byte-identical.
    if (!f.signal_name.empty()) {
      os << ", \"signal\": \"" << escape(f.signal_name) << "\"";
    }
    if (f.timed_out) {
      os << ", \"timed_out\": true";
    }
    if (f.recovery_wall_us != 0) {
      os << ", \"recovery_wall_us\": " << f.recovery_wall_us;
    }
    if (!f.dedup_of.empty()) {
      os << ", \"dedup_of\": \"" << escape(f.dedup_of) << "\"";
    }
    os << ", \"location\": \"" << escape(f.location) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace mumak
