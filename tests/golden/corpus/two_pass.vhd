-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'two_pass'
-- data path: 1 nodes (1 soft, 0 hard), 1 pipeline stages
-- netlist: 8 cells, 0 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity two_pass_dp_node1 is
  port (
    A0 : in signed(9 downto 0);
    t7_out : out signed(10 downto 0);
    t4_out : out signed(11 downto 0)
  );
end entity two_pass_dp_node1;

architecture rtl of two_pass_dp_node1 is
  signal t6 : signed(10 downto 0);
  signal t7 : signed(10 downto 0);
  signal t2 : signed(11 downto 0);
  signal t3 : signed(12 downto 0);
  signal t4 : signed(11 downto 0);
begin
  t6 <= resize(A0, 11) + to_signed(100, 11);
  t7 <= t6;
  t2 <= shift_left(resize(A0, 12), 2);
  t3 <= resize(t2, 13) - resize(A0, 13);
  t4 <= t3(11 downto 0);
  t7_out <= t7;
  t4_out <= t4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity two_pass_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(9 downto 0);
    C_o0 : out signed(11 downto 0);
    D_o0 : out signed(11 downto 0)
  );
end entity two_pass_dp;

architecture rtl of two_pass_dp is
  signal t7 : signed(10 downto 0);
  signal t4 : signed(11 downto 0);
begin
  u_node1 : entity work.two_pass_dp_node1
    port map (A0 => A0, t7_out => t7, t4_out => t4);
  C_o0 <= t4;
  D_o0 <= resize(t7, 12);
end architecture rtl;
