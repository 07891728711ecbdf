-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'sobel_x'
-- data path: 1 nodes (1 soft, 0 hard), 2 pipeline stages
-- netlist: 12 cells, 33 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sobel_x_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    P0 : in signed(9 downto 0);
    P1 : in signed(9 downto 0);
    P2 : in signed(9 downto 0);
    P3 : in signed(9 downto 0);
    P5_s1 : in signed(9 downto 0);
    P4_s1 : in signed(9 downto 0);
    t13_out : out signed(12 downto 0)
  );
end entity sobel_x_dp_node1;

architecture rtl of sobel_x_dp_node1 is
  signal t7 : signed(10 downto 0);
  signal t9 : signed(11 downto 0);
  signal t6 : signed(10 downto 0);
  signal t10 : signed(12 downto 0);
  signal t10_s1 : signed(12 downto 0) := (others => '0');
  signal t11 : signed(12 downto 0);
  signal t12 : signed(12 downto 0);
  signal t13 : signed(12 downto 0);
begin
  t7 <= resize(P3, 11) - resize(P2, 11);
  t9 <= shift_left(resize(t7, 12), 1);
  t6 <= resize(P1, 11) - resize(P0, 11);
  t10 <= resize(t6, 13) + resize(t9, 13);
  t11 <= t10_s1 + resize(P5_s1, 13);
  t12 <= t11 - resize(P4_s1, 13);
  t13 <= t12;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t10_s1 <= t10;
      end if;
    end if;
  end process;
  t13_out <= t13;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sobel_x_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    P0 : in signed(9 downto 0);
    P1 : in signed(9 downto 0);
    P2 : in signed(9 downto 0);
    P3 : in signed(9 downto 0);
    P4 : in signed(9 downto 0);
    P5 : in signed(9 downto 0);
    G_o0 : out signed(13 downto 0)
  );
end entity sobel_x_dp;

architecture rtl of sobel_x_dp is
  signal t13 : signed(12 downto 0);
  signal P5_s1 : signed(9 downto 0) := (others => '0');
  signal P4_s1 : signed(9 downto 0) := (others => '0');
begin
  u_node1 : entity work.sobel_x_dp_node1
    port map (clk => clk, ce => ce, P0 => P0, P1 => P1, P2 => P2, P3 => P3, P5_s1 => P5_s1, P4_s1 => P4_s1, t13_out => t13);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        P5_s1 <= P5;
        P4_s1 <= P4;
      end if;
    end if;
  end process;
  G_o0 <= resize(t13, 14);
end architecture rtl;
