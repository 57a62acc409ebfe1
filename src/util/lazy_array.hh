/**
 * @file
 * LazyArray: a fixed-size array of trivially-zeroable values whose
 * backing pages materialize on first write.
 *
 * The extreme-scale topologies give the Network millions of link
 * ids, but any one collective touches only the links on its
 * communication routes — a barrier at p = 65536 on a fat tree uses a
 * few percent of the fabric.  Dense per-link occupancy vectors made
 * Network construction and reset() O(total links); this page table
 * makes them O(touched links) while keeping reads of untouched slots
 * a branch and a zero.
 *
 * Reads (get) never allocate; writes (slot) materialize one 4096-
 * entry page.  clear() drops every page, returning the array to its
 * all-zero state in O(allocated pages).
 */

#ifndef CCSIM_UTIL_LAZY_ARRAY_HH
#define CCSIM_UTIL_LAZY_ARRAY_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace ccsim {

/** Sparse fixed-size array; unwritten slots read as T{}. */
template <typename T>
class LazyArray
{
  public:
    static constexpr std::size_t kPageShift = 12;
    static constexpr std::size_t kPageSize = std::size_t{1}
                                             << kPageShift;
    static constexpr std::size_t kPageMask = kPageSize - 1;

    LazyArray() = default;
    explicit LazyArray(std::size_t n) { reset(n); }

    /** Resize to @p n all-zero slots, dropping every page. */
    void
    reset(std::size_t n)
    {
        size_ = n;
        pages_.clear();
        pages_.resize((n + kPageSize - 1) / kPageSize);
    }

    /** Drop every page: all slots read as T{} again. */
    void
    clear()
    {
        for (auto &p : pages_)
            p.reset();
    }

    std::size_t size() const { return size_; }

    /** Read slot @p i; never allocates. */
    T
    get(std::size_t i) const
    {
        const auto &p = pages_[i >> kPageShift];
        return p ? (*p)[i & kPageMask] : T{};
    }

    /** Writable slot @p i; materializes its page if needed. */
    T &
    slot(std::size_t i)
    {
        auto &p = pages_[i >> kPageShift];
        if (!p)
            p = std::make_unique<Page>(); // value-initialized: zeros
        return (*p)[i & kPageMask];
    }

    /**
     * Visit fn(index, value) for every slot of every materialized
     * page, in ascending index order.  Untouched pages are skipped
     * wholesale; zero slots inside touched pages are visited (callers
     * filter).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t pi = 0; pi < pages_.size(); ++pi) {
            const auto &p = pages_[pi];
            if (!p)
                continue;
            const std::size_t base = pi << kPageShift;
            const std::size_t n =
                std::min(kPageSize, size_ - base);
            for (std::size_t j = 0; j < n; ++j)
                fn(base + j, (*p)[j]);
        }
    }

  private:
    using Page = std::array<T, kPageSize>;

    std::size_t size_ = 0;
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace ccsim

#endif // CCSIM_UTIL_LAZY_ARRAY_HH
