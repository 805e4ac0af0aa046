// Small-buffer-optimized message payload.
//
// Every wire message in the repository's protocol families is a handful of
// fixed-width fields (the largest, a slot-wrapped Figure 2 echo, is 23
// bytes), yet the original `Bytes = std::vector<std::byte>` representation
// paid a heap allocation per encode and a deep copy per broadcast
// destination. Payload removes both costs from the simulation hot path:
//
//   * contents up to kInlineCapacity bytes live inline in the object —
//     construction, copy and destruction never touch the heap;
//   * larger contents (multivalued proposals, fuzz payloads) spill to a
//     reference-counted heap block shared copy-on-write, so broadcast
//     fan-out of an oversized payload is a refcount increment per
//     destination instead of a deep copy. The refcount is atomic because
//     scenario objects holding payloads may be copied concurrently by the
//     parallel trial runtime.
//
// Mutating accessors detach (clone) a shared block first, so aliasing is
// never observable; the API is the subset of std::vector<std::byte> the
// codebase uses. Heap spills are counted in a process-wide atomic so tests
// can assert the steady-state hot path performs zero payload allocations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace rcp {

class Payload {
 public:
  using value_type = std::byte;
  using size_type = std::size_t;
  using iterator = std::byte*;
  using const_iterator = const std::byte*;

  /// Bytes stored inline (no heap) — covers every protocol message,
  /// including the multivalued layer's 9-byte slot wrapper around the
  /// largest 14-byte binary-protocol message.
  static constexpr std::size_t kInlineCapacity = 24;

  Payload() noexcept : rep_{}, size_(0), heap_(false) {}

  explicit Payload(std::size_t count, std::byte fill = std::byte{0})
      : Payload() {
    resize(count, fill);
  }

  Payload(std::initializer_list<std::byte> init) : Payload() {
    append(init.begin(), init.size());
  }

  Payload(const std::byte* first, const std::byte* last) : Payload() {
    append(first, static_cast<std::size_t>(last - first));
  }

  explicit Payload(std::span<const std::byte> data) : Payload() {
    append(data.data(), data.size());
  }

  Payload(const Payload& other) noexcept
      : rep_(other.rep_), size_(other.size_), heap_(other.heap_) {
    if (heap_) {
      rep_.heap->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Payload(Payload&& other) noexcept
      : rep_(other.rep_), size_(other.size_), heap_(other.heap_) {
    other.size_ = 0;
    other.heap_ = false;
  }

  Payload& operator=(const Payload& other) noexcept {
    if (this != &other) {
      if (other.heap_) {
        other.rep_.heap->refs.fetch_add(1, std::memory_order_relaxed);
      }
      release();
      rep_ = other.rep_;
      size_ = other.size_;
      heap_ = other.heap_;
    }
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      rep_ = other.rep_;
      size_ = other.size_;
      heap_ = other.heap_;
      other.size_ = 0;
      other.heap_ = false;
    }
    return *this;
  }

  ~Payload() { release(); }

  // ---- Observers (never detach) -------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_ ? rep_.heap->capacity : kInlineCapacity;
  }

  /// True if the contents live in a heap block (capacity spill).
  [[nodiscard]] bool on_heap() const noexcept { return heap_; }

  /// True if a heap block is shared with at least one other Payload.
  [[nodiscard]] bool shared() const noexcept {
    return heap_ && rep_.heap->refs.load(std::memory_order_acquire) > 1;
  }

  [[nodiscard]] const std::byte* data() const noexcept { return cdata(); }
  [[nodiscard]] const_iterator begin() const noexcept { return cdata(); }
  [[nodiscard]] const_iterator end() const noexcept { return cdata() + size_; }
  [[nodiscard]] const_iterator cbegin() const noexcept { return cdata(); }
  [[nodiscard]] const_iterator cend() const noexcept { return cdata() + size_; }

  [[nodiscard]] const std::byte& operator[](std::size_t i) const noexcept {
    return cdata()[i];
  }
  [[nodiscard]] const std::byte& front() const noexcept { return cdata()[0]; }
  [[nodiscard]] const std::byte& back() const noexcept {
    return cdata()[size_ - 1];
  }

  [[nodiscard]] std::span<const std::byte> span() const noexcept {
    return {cdata(), size_};
  }

  // ---- Mutating accessors (detach a shared block first) --------------

  [[nodiscard]] std::byte* data() { return unique_data(); }
  [[nodiscard]] iterator begin() { return unique_data(); }
  [[nodiscard]] iterator end() { return unique_data() + size_; }

  [[nodiscard]] std::byte& operator[](std::size_t i) {
    return unique_data()[i];
  }
  [[nodiscard]] std::byte& front() { return unique_data()[0]; }
  [[nodiscard]] std::byte& back() { return unique_data()[size_ - 1]; }

  // ---- Mutators ------------------------------------------------------

  void reserve(std::size_t cap) {
    if (cap > capacity()) {
      reallocate(cap);
    }
  }

  void push_back(std::byte v) {
    if (!heap_ && size_ < kInlineCapacity) {
      rep_.inline_[size_++] = v;
      return;
    }
    grow_for(size_ + 1);
    storage()[size_++] = v;
  }

  void pop_back() noexcept {
    // Shrinking only moves this object's size; shared block bytes are
    // untouched, so no detach is needed.
    --size_;
  }

  void clear() noexcept { size_ = 0; }

  void resize(std::size_t count, std::byte fill = std::byte{0}) {
    if (count <= size_) {
      size_ = static_cast<std::uint32_t>(count);
      return;
    }
    const std::size_t added = count - size_;
    std::memset(extend(added), std::to_integer<int>(fill), added);
  }

  void append(const std::byte* src, std::size_t len) {
    if (len == 0) {
      return;
    }
    std::memcpy(extend(len), src, len);
  }

  /// Grows the payload by `len` bytes with one capacity check and returns
  /// a pointer to them. Their contents are unspecified: the caller writes
  /// all `len` bytes (the codecs' whole-field and whole-batch writes).
  [[nodiscard]] std::byte* extend(std::size_t len) {
    grow_for(size_ + len);
    std::byte* tail = storage() + size_;
    size_ += static_cast<std::uint32_t>(len);
    return tail;
  }

  void assign(const std::byte* first, const std::byte* last) {
    clear();
    append(first, static_cast<std::size_t>(last - first));
  }

  /// Append-only insert (the only form the codebase uses). `pos` must be
  /// end(); the range must not alias this payload's own storage.
  void insert(const_iterator pos, const std::byte* first,
              const std::byte* last) {
    RCP_EXPECT(pos == cend(), "Payload::insert supports only append at end()");
    append(first, static_cast<std::size_t>(last - first));
  }

  [[nodiscard]] friend bool operator==(const Payload& a,
                                       const Payload& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.cdata(), b.cdata(), a.size_) == 0);
  }

  // ---- Allocation accounting ----------------------------------------

  /// Process-wide count of heap blocks ever allocated by Payloads. The
  /// steady-state simulation hot path must not advance this counter for
  /// protocol messages <= kInlineCapacity; tests assert exactly that.
  [[nodiscard]] static std::uint64_t heap_allocation_count() noexcept {
    return heap_allocs_.load(std::memory_order_relaxed);
  }

 private:
  struct HeapBlock {
    explicit HeapBlock(std::uint32_t cap) noexcept : refs(1), capacity(cap) {}
    std::atomic<std::uint32_t> refs;
    std::uint32_t capacity;
    [[nodiscard]] std::byte* bytes() noexcept {
      return reinterpret_cast<std::byte*>(this + 1);
    }
    [[nodiscard]] const std::byte* bytes() const noexcept {
      return reinterpret_cast<const std::byte*>(this + 1);
    }
  };

  [[nodiscard]] static HeapBlock* alloc_block(std::size_t cap) {
    RCP_EXPECT(cap <= UINT32_MAX, "payload exceeds 4 GiB");
    heap_allocs_.fetch_add(1, std::memory_order_relaxed);
    // rcp-lint: allow(hot-alloc) the single counted Payload spill site
    void* raw = ::operator new(sizeof(HeapBlock) + cap);
    // rcp-lint: allow(hot-alloc) placement-construct into the counted block
    return new (raw) HeapBlock(static_cast<std::uint32_t>(cap));
  }

  static void unref(HeapBlock* block) noexcept {
    if (block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block->~HeapBlock();
      ::operator delete(block);
    }
  }

  void release() noexcept {
    if (heap_) {
      unref(rep_.heap);
      heap_ = false;
    }
  }

  [[nodiscard]] const std::byte* cdata() const noexcept {
    return heap_ ? rep_.heap->bytes() : rep_.inline_;
  }

  [[nodiscard]] std::byte* storage() noexcept {
    return heap_ ? rep_.heap->bytes() : rep_.inline_;
  }

  /// Writable pointer to (unshared) storage; clones a shared block.
  [[nodiscard]] std::byte* unique_data() {
    if (shared()) {
      reallocate(size_);
    }
    return storage();
  }

  /// Guarantees exclusively-owned storage with capacity >= `need`,
  /// growing geometrically on heap reallocation (append pattern).
  void grow_for(std::size_t need) {
    if (need <= capacity() && !shared()) {
      return;
    }
    const std::size_t doubled = capacity() * 2;
    reallocate(need > doubled ? need : doubled);
  }

  /// Moves contents into exclusively-owned storage of capacity
  /// max(need, size_); inline if it fits, else a fresh heap block.
  void reallocate(std::size_t need) {
    if (need < size_) {
      need = size_;
    }
    if (need <= kInlineCapacity) {
      if (!heap_) {
        return;  // already inline
      }
      HeapBlock* old = rep_.heap;
      std::memcpy(rep_.inline_, old->bytes(), size_);
      heap_ = false;
      unref(old);
      return;
    }
    HeapBlock* fresh = alloc_block(need);
    std::memcpy(fresh->bytes(), cdata(), size_);
    release();
    rep_.heap = fresh;
    heap_ = true;
  }

  union Rep {
    std::byte inline_[kInlineCapacity];
    HeapBlock* heap;
  } rep_;
  std::uint32_t size_;
  bool heap_;

  inline static std::atomic<std::uint64_t> heap_allocs_{0};
};

}  // namespace rcp
