#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace net {

void encode_header(std::uint8_t* out, std::uint16_t type,
                   std::uint32_t payload_len) {
  std::memcpy(out, kMagic.data(), kMagic.size());
  out[4] = static_cast<std::uint8_t>(kProtocolVersion);
  out[5] = static_cast<std::uint8_t>(kProtocolVersion >> 8);
  out[6] = static_cast<std::uint8_t>(type);
  out[7] = static_cast<std::uint8_t>(type >> 8);
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
}

FrameHeader decode_header(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderSize) {
    throw FrameError("frame: truncated header (" + std::to_string(size) +
                     " of " + std::to_string(kHeaderSize) + " bytes)");
  }
  if (std::memcmp(data, kMagic.data(), kMagic.size()) != 0) {
    throw FrameError("frame: bad magic");
  }
  FrameHeader h;
  h.version = static_cast<std::uint16_t>(data[4]) |
              static_cast<std::uint16_t>(data[5]) << 8;
  if (h.version != kProtocolVersion) {
    throw FrameError("frame: protocol version " + std::to_string(h.version) +
                     " (this build speaks " +
                     std::to_string(kProtocolVersion) + ")");
  }
  h.type = static_cast<std::uint16_t>(data[6]) |
           static_cast<std::uint16_t>(data[7]) << 8;
  h.payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    h.payload_len |= static_cast<std::uint32_t>(data[8 + i]) << (8 * i);
  }
  if (h.payload_len > kMaxPayload) {
    throw FrameError("frame: declared payload " +
                     std::to_string(h.payload_len) + " bytes exceeds cap " +
                     std::to_string(kMaxPayload));
  }
  return h;
}

std::vector<std::uint8_t> encode_frame(std::uint16_t type,
                                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kHeaderSize + payload.size());
  encode_header(out.data(), type, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderSize);
  return out;
}

bool read_frame(Socket& sock, Frame& out) {
  std::uint8_t hdr[kHeaderSize];
  switch (sock.recv_exact(hdr, kHeaderSize)) {
    case Socket::RecvStatus::Eof:
      return false;
    case Socket::RecvStatus::Truncated:
      throw FrameError("frame: connection cut mid-header");
    case Socket::RecvStatus::Ok:
      break;
  }
  const FrameHeader h = decode_header(hdr, kHeaderSize);
  out.type = h.type;
  out.payload.resize(h.payload_len);
  if (h.payload_len > 0 &&
      sock.recv_exact(out.payload.data(), h.payload_len) !=
          Socket::RecvStatus::Ok) {
    throw FrameError("frame: connection cut mid-payload (declared " +
                     std::to_string(h.payload_len) + " bytes)");
  }
  return true;
}

bool write_frame(Socket& sock, std::uint16_t type,
                 const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw FrameError("frame: refusing to send payload of " +
                     std::to_string(payload.size()) + " bytes (cap " +
                     std::to_string(kMaxPayload) + ")");
  }
  std::uint8_t hdr[kHeaderSize];
  encode_header(hdr, type, static_cast<std::uint32_t>(payload.size()));
  if (!sock.send_all(hdr, kHeaderSize)) return false;
  if (!payload.empty() && !sock.send_all(payload.data(), payload.size())) {
    return false;
  }
  return true;
}

}  // namespace net
