#pragma once

// Driver for the accessor-table compaction test of the interval stores
// (test_treap.cpp): thousands of strands over one small region, far more
// accessors than the store ever keeps segments.  One template serves the
// one-sided writer store and the two-sided reader store.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "store/interval_store.hpp"
#include "support/rng.hpp"

namespace pint::test {

/// Strand i's accessor, every field derived from i: label words, tag and
/// lockset all differ between neighbouring strands.
inline store::Accessor strand_acc(std::uint64_t i) {
  static const char* const kTags[] = {"alpha", "beta", nullptr};
  store::Accessor a;
  a.sid = i;
  a.lsid = std::uint32_t(i % 3);
  a.tag = kTags[i % 3];
  a.label.tail = i * 0x9e3779b97f4a7c15ULL;
  a.label.bits = std::uint32_t(i % 61);
  a.label.live = 1;
  return a;
}

/// Every field of an accessor as bytes: sid, lsid, tag and label words.
inline std::string accessor_bytes(const store::Accessor& a) {
  std::string out;
  auto put = [&](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(a.sid);
  put(a.lsid);
  put(a.tag);
  put(a.label.tail);
  put(a.label.frozen);
  put(a.label.bits);
  put(a.label.live);
  return out;
}

/// A payload resolved through its store's table: the bytes of each slot.
template <class Store>
std::string resolved(const Store& t, typename Store::Payload p) {
  std::string out;
  store::for_each_handle(p, [&](store::Handle h) {
    out += accessor_bytes(t.table()[h]);
  });
  return out;
}

using Walk =
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::string>>;

/// The segments over [0, region) with their resolved contents.
template <class Store>
Walk resolved_walk(const Store& t, std::uint64_t region) {
  Walk out;
  t.query(0, region - 1, [&](std::uint64_t lo, std::uint64_t hi,
                             const typename Store::Payload& p) {
    out.push_back({lo, hi, resolved(t, p)});
  });
  return out;
}

/// English rank of a strand, for the two-sided rule: the left slot takes a
/// lower-ranked reader, the right slot a higher-ranked one.
inline std::uint64_t rank_of(std::uint64_t sid) {
  return (sid * 2654435761u) % 1000003;
}

/// Applies `strands` strands to t, each over a random grain-aligned part
/// of [0, region): last-writer inserts into a one-sided store, two-sided
/// reader inserts into a pair store.  Checks after every intern that the
/// table is under its bound, and that a compaction left the resolved
/// contents exactly as they were before it; checks every 250 strands, and
/// at the end, that each byte resolves to what a per-byte model of full
/// accessors holds.  Returns the number of compactions.
template <class Store>
std::size_t drive_compaction(Store& t, std::uint64_t strands,
                             std::uint64_t region, std::uint64_t grain) {
  constexpr bool kPair = Store::kSlots == 2;
  std::map<std::uint64_t, std::vector<store::Accessor>> model;  // per byte
  Xoshiro256 rng(17);
  std::size_t compactions = 0;
  auto sid = [&](store::Handle h) { return t.table()[h].sid; };
  auto check_bytes = [&](std::uint64_t i) {
    std::map<std::uint64_t, std::string> got, want;
    for (const auto& [lo, hi, who] : resolved_walk(t, region)) {
      for (std::uint64_t b = lo; b <= hi; ++b) got[b] = who;
    }
    for (const auto& [b, slots] : model) {
      for (const store::Accessor& a : slots) want[b] += accessor_bytes(a);
    }
    EXPECT_EQ(got, want) << "strand " << i;
  };
  for (std::uint64_t i = 1; i <= strands; ++i) {
    const store::Accessor a = strand_acc(i);
    const std::uint64_t cells = region / grain;
    const std::uint64_t c = rng.next_below(cells);
    const std::uint64_t lo = c * grain;
    const std::uint64_t hi = (c + 1 + rng.next_below(cells - c)) * grain - 1;

    const Walk before = resolved_walk(t, region);
    const std::size_t entries = t.table().size();
    const std::size_t live = t.size() * Store::kSlots;
    const store::Handle h = t.intern(a);
    EXPECT_LE(t.table().size(), 2 * live + store::AccessorTable::kFloor + 1)
        << "strand " << i;
    if (t.table().size() <= entries) {
      ++compactions;
      EXPECT_EQ(resolved_walk(t, region), before) << "strand " << i;
    }

    if constexpr (kPair) {
      using Pair = store::ReaderPair;
      t.insert_reader(lo, hi, Pair{h, h}, [&](const Pair& p, const Pair& n) {
        Pair out = p;
        if (rank_of(sid(n.left)) < rank_of(sid(p.left))) out.left = n.left;
        if (rank_of(sid(n.right)) > rank_of(sid(p.right))) {
          out.right = n.right;
        }
        return out;
      });
      for (std::uint64_t b = lo; b <= hi; ++b) {
        auto [it, fresh] = model.try_emplace(b, std::vector{a, a});
        if (fresh) continue;
        std::vector<store::Accessor>& s = it->second;
        if (rank_of(i) < rank_of(s[0].sid)) s[0] = a;
        if (rank_of(i) > rank_of(s[1].sid)) s[1] = a;
      }
    } else {
      t.insert_writer(lo, hi, h, [](auto, auto, const auto&) {});
      for (std::uint64_t b = lo; b <= hi; ++b) model[b] = {a};
    }
    if (i % 250 == 0 || i == strands) check_bytes(i);
    if (::testing::Test::HasFailure()) break;
  }
  return compactions;
}

}  // namespace pint::test
