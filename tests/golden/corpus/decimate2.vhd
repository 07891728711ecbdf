-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'decimate2'
-- data path: 1 nodes (1 soft, 0 hard), 1 pipeline stages
-- netlist: 4 cells, 0 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity decimate2_dp_node1 is
  port (
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    t5_out : out signed(11 downto 0)
  );
end entity decimate2_dp_node1;

architecture rtl of decimate2_dp_node1 is
  signal t2 : signed(12 downto 0);
  signal t4 : signed(11 downto 0);
  signal t5 : signed(11 downto 0);
begin
  t2 <= resize(A0, 13) + resize(A1, 13);
  t4 <= t2(12 downto 1);
  t5 <= t4;
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity decimate2_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    C_o0 : out signed(11 downto 0)
  );
end entity decimate2_dp;

architecture rtl of decimate2_dp is
  signal t5 : signed(11 downto 0);
begin
  u_node1 : entity work.decimate2_dp_node1
    port map (A0 => A0, A1 => A1, t5_out => t5);
  C_o0 <= t5;
end architecture rtl;
