// Shared primitive types for the DNS substrate.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace seg::dns {

/// Day index. Experiments use days relative to an arbitrary epoch (the
/// simulator's day 0); all windows in the paper (n = 14 days of activity
/// history, W = 5 months of pDNS history) are expressed in these units.
using Day = std::int32_t;

/// Number of days in the paper's pDNS history window W (~5 months).
inline constexpr Day kDefaultPdnsWindowDays = 150;

/// Number of days in the paper's domain-activity window n.
inline constexpr Day kDefaultActivityWindowDays = 14;

/// A set of days, one bit per day in 64-day words. Word `index` covers the
/// days [index * 64, index * 64 + 63] (index = day >> 6, so negative days
/// fall in negative words) and holds `day` in bit `day & 63`. Words are
/// sorted by index, unique and never zero, so a key's months of history
/// cost a few words, and every query touches only the words of its range.
/// Const members only read, so concurrent queries need no lock.
class DaySet {
 public:
  /// Adds `day`. History is fed mostly in day order, so the common case
  /// appends to or ORs into the last word in O(1); an earlier day
  /// binary-searches the words.
  void insert(Day day) {
    const Word word{word_index(day), bit_of(day)};
    if (words_.empty() || words_.back().index < word.index) {
      words_.push_back(word);
    } else if (words_.back().index == word.index) {
      words_.back().bits |= word.bits;
    } else {
      const auto it = find_word(word.index);
      if (it->index == word.index) {
        it->bits |= word.bits;
      } else {
        words_.insert(it, word);
      }
    }
  }

  /// Releases the capacity that in-order appends leave spare.
  void shrink_to_fit() { words_.shrink_to_fit(); }

  bool empty() const { return words_.empty(); }

  /// Number of days in [from, to] inclusive; 0 when from > to.
  int count(Day from, Day to) const {
    if (from > to) {
      return 0;
    }
    const auto last = word_index(to);
    std::int64_t count = 0;
    for (auto it = find_word(word_index(from)); it != words_.end() && it->index <= last; ++it) {
      count += std::popcount(range_bits(*it, from, to));
    }
    return static_cast<int>(count);
  }

  /// True if some day lies in [from, to] inclusive; false when from > to.
  bool any_in(Day from, Day to) const {
    if (from > to) {
      return false;
    }
    const auto last = word_index(to);
    for (auto it = find_word(word_index(from)); it != words_.end() && it->index <= last; ++it) {
      if (range_bits(*it, from, to) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Number of consecutive days in the set ending exactly at `day`: the
  /// leading ones counted down from `day`'s bit, across adjacent full
  /// words. 0 when `day` is not in the set.
  int run_ending(Day day) const {
    auto it = find_word(word_index(day));
    const int bit = day & 63;
    if (it == words_.end() || it->index != word_index(day) || ((it->bits >> bit) & 1U) == 0) {
      return 0;
    }
    // Shift `day`'s bit to the top: the leading ones are the run within
    // this word, and a run that reaches bit 0 goes on in the word before.
    std::int64_t run = std::countl_one(it->bits << (63 - bit));
    bool reaches_bit0 = run == bit + 1;
    while (reaches_bit0 && it != words_.begin()) {
      const auto above = it->index;
      --it;
      if (it->index != above - 1) {
        break;
      }
      const int ones = std::countl_one(it->bits);
      run += ones;
      reaches_bit0 = ones == 64;
    }
    return static_cast<int>(run);
  }

  /// The earliest day; the set must not be empty.
  Day first() const {
    const auto& word = words_.front();
    return word.index * 64 + std::countr_zero(word.bits);
  }

  /// Calls `visit(day)` for every day in ascending order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& word : words_) {
      for (auto bits = word.bits; bits != 0; bits &= bits - 1) {
        visit(static_cast<Day>(word.index * 64 + std::countr_zero(bits)));
      }
    }
  }

 private:
  struct Word {
    std::int32_t index = 0;
    std::uint64_t bits = 0;
  };

  static std::int32_t word_index(Day day) { return day >> 6; }
  static std::uint64_t bit_of(Day day) { return std::uint64_t{1} << (day & 63); }
  static bool by_index(const Word& a, const Word& b) { return a.index < b.index; }

  /// `word`'s days that lie in [from, to] (from <= to).
  static std::uint64_t range_bits(const Word& word, Day from, Day to) {
    auto bits = word.bits;
    if (word.index == word_index(from)) {
      bits &= ~std::uint64_t{0} << (from & 63);
    }
    if (word.index == word_index(to)) {
      bits &= ~std::uint64_t{0} >> (63 - (to & 63));
    }
    return bits;
  }

  /// The first word whose index is not below `index`.
  std::vector<Word>::iterator find_word(std::int32_t index) {
    return std::lower_bound(words_.begin(), words_.end(), Word{index, 0}, by_index);
  }
  std::vector<Word>::const_iterator find_word(std::int32_t index) const {
    return std::lower_bound(words_.begin(), words_.end(), Word{index, 0}, by_index);
  }

  std::vector<Word> words_;
};

}  // namespace seg::dns
