// Per-layer self time from the library's existing trace spans.

#include "bench.h"

namespace agnn::perfbench {

SpanTable::SpanTable(const obs::TraceRecorder& recorder,
                     const std::string& what, Tally* tally)
    : what_(what), tally_(tally) {
  for (const obs::TraceRecorder::SummaryRow& row :
       recorder.Summary(static_cast<size_t>(-1))) {
    rows_[{row.category, row.name}] = row;
  }
  tally_->Fail(recorder.dropped(), what_ + " trace dropped events");
}

const obs::TraceRecorder::SummaryRow* SpanTable::Row(
    const std::string& category, const std::string& name) const {
  auto it = rows_.find({category, name});
  if (it == rows_.end() || it->second.count == 0) {
    tally_->Fail(1, what_ + " trace has no " + category + "/" + name +
                        " spans");
    return nullptr;
  }
  return &it->second;
}

double SpanTable::SelfUs(const std::string& category,
                         const std::string& name) const {
  const obs::TraceRecorder::SummaryRow* row = Row(category, name);
  return row == nullptr ? 0.0 : row->exclusive_us;
}

double SpanTable::TotalUs(const std::string& category,
                          const std::string& name) const {
  const obs::TraceRecorder::SummaryRow* row = Row(category, name);
  return row == nullptr ? 0.0 : row->inclusive_us;
}

double SpanTable::CategorySum(const std::string& category,
                              double obs::TraceRecorder::SummaryRow::*field,
                              const char* figure) const {
  double total = 0.0;
  for (const auto& [key, row] : rows_) {
    if (key.first == category) total += row.*field;
  }
  if (!(total > 0.0)) {
    tally_->Fail(1, what_ + " trace has no " + figure + " in category " +
                        category);
  }
  return total;
}

double SpanTable::Flops(const std::string& category) const {
  return CategorySum(category, &obs::TraceRecorder::SummaryRow::flops,
                     "flops");
}

double SpanTable::Bytes(const std::string& category) const {
  return CategorySum(category, &obs::TraceRecorder::SummaryRow::bytes,
                     "bytes");
}

double SpanTable::CategorySelfUs(const std::string& category) const {
  return CategorySum(category, &obs::TraceRecorder::SummaryRow::exclusive_us,
                     "self time");
}

}  // namespace agnn::perfbench
