// Tests of the benchmark's span recorder: self time subtracts the union of
// child intervals, parents are found per thread or passed explicitly, and
// per-request totals add up.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"

using qpwm_bench::ScopedSpan;
using qpwm_bench::SelfTimesNs;
using qpwm_bench::Span;
using qpwm_bench::SpanRecorder;
using qpwm_bench::TotalsByRequest;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-15; }

Span Make(int64_t start, int64_t end, int32_t parent, uint64_t request = 0,
          const char* name = "s") {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.request = request;
  return s;
}

void DisjointChildren() {
  const std::vector<Span> spans = {Make(0, 100, -1), Make(10, 20, 0),
                                   Make(30, 50, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 70, "disjoint children: parent self is 100 - 10 - 20");
  Expect(self[1] == 10 && self[2] == 20, "leaf self time is its duration");
}

void OverlappingChildrenUseUnion() {
  // Two concurrent lanes under one epoch: the union covers [0, 80), so the
  // epoch's own time is 20. Summing the lanes would give 100 - 120 < 0.
  const std::vector<Span> spans = {Make(0, 100, -1), Make(0, 80, 0),
                                   Make(10, 50, 0), Make(60, 70, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 20, "overlapping children: parent self uses the union");
}

void ChildrenClippedToParent() {
  const std::vector<Span> spans = {Make(10, 50, -1), Make(0, 20, 0),
                                   Make(40, 90, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 20, "children are clipped to the parent's interval");
}

void GrandchildrenCountOnlyForTheirParent() {
  const std::vector<Span> spans = {Make(0, 100, -1), Make(0, 50, 0),
                                   Make(10, 40, 1)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 50, "root self subtracts its child, not the grandchild");
  Expect(self[1] == 20, "middle span subtracts its own child");
  Expect(self[2] == 30, "grandchild keeps its duration");
}

void TotalsPerRequest() {
  const std::vector<Span> spans = {Make(0, 100, -1, 1, "r"), Make(0, 30, 0, 1, "x"),
                                   Make(40, 50, 0, 1, "x"), Make(200, 260, -1, 2, "r"),
                                   Make(200, 210, 3, 2, "x")};
  const auto totals = TotalsByRequest(spans, SelfTimesNs(spans));
  Expect(totals.at("x").at(1).calls == 2, "two x calls in request 1");
  Expect(Near(totals.at("x").at(1).total_s, 40e-9), "x total in request 1 is 40 ns");
  Expect(Near(totals.at("r").at(1).self_s, 60e-9), "r self in request 1 is 60 ns");
  Expect(totals.at("x").at(2).calls == 1, "one x call in request 2");
}

void ScopedSpansNestAndCrossThreads() {
  SpanRecorder rec;
  int32_t root_id = -1;
  {
    ScopedSpan root(&rec, "root", 7, -1);
    root_id = root.id();
    {
      ScopedSpan child(&rec, "child");
      child.set_items(3);
    }
    std::thread lane([&] {
      ScopedSpan inherited(&rec, "lane-default");
      ScopedSpan explicit_parent(&rec, "lane", 7, root_id);
    });
    lane.join();
  }
  const std::vector<Span> spans = rec.spans();
  Expect(spans.size() == 4, "four spans recorded");
  if (spans.size() != 4) return;
  Expect(spans[1].parent == root_id && spans[1].request == 7,
         "a nested span inherits the thread's open span and request");
  Expect(spans[1].items == 3, "items are recorded at the end of the span");
  Expect(spans[2].parent == -1, "another thread has no open span to inherit");
  Expect(spans[3].parent == root_id, "an explicit parent crosses threads");
  for (const Span& s : spans) {
    Expect(s.end_ns >= s.start_ns, std::string("span closed: ") + s.name);
  }
}

void NullRecorderIsANoOp() {
  ScopedSpan span(nullptr, "nothing", 1, -1);
  Expect(span.id() == -1, "a null recorder records nothing");
}

}  // namespace

int main() {
  DisjointChildren();
  OverlappingChildrenUseUnion();
  ChildrenClippedToParent();
  GrandchildrenCountOnlyForTheirParent();
  TotalsPerRequest();
  ScopedSpansNestAndCrossThreads();
  NullRecorderIsANoOp();
  if (failures == 0) std::cout << "spans_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
